package workload

// GenConfig parameterizes the seeded shape catalog. The zero value of
// every field selects a sensible default, so GenConfig{Seed: 42} is a
// complete configuration. All randomness flows from Seed through one
// SplitMix64 stream: equal configs produce byte-identical catalogs.
type GenConfig struct {
	Seed uint64

	// Shapes is the catalog size: the number of distinct (m,n,k)
	// problem shapes (default 16). Catalog index doubles as popularity
	// rank — index 0 is the Zipf-hottest shape — so a catalog larger
	// than the engine's plan-cache capacity forces LRU eviction on the
	// tail.
	Shapes int

	// ZipfS is the Zipf popularity exponent over the catalog
	// (default 1.1; larger concentrates more traffic on hot shapes).
	ZipfS float64

	// MinDim and MaxDim bound every drawn dimension
	// (defaults 16 and 256).
	MinDim, MaxDim int
}

func (c GenConfig) norm() GenConfig {
	if c.Shapes < 1 {
		c.Shapes = 16
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	if c.MinDim < 1 {
		c.MinDim = 16
	}
	if c.MaxDim < c.MinDim {
		c.MaxDim = 256
		if c.MaxDim < c.MinDim {
			c.MaxDim = c.MinDim
		}
	}
	return c
}

// Generator draws a reproducible shape catalog. Callers sample it by
// popularity with NewZipf(len(catalog), cfg.ZipfS) and their own RNG.
type Generator struct {
	cfg     GenConfig
	rng     *RNG
	catalog []Dims
}

// NewGenerator builds a generator and its shape catalog from cfg.
func NewGenerator(cfg GenConfig) *Generator {
	cfg = cfg.norm()
	g := &Generator{
		cfg: cfg,
		rng: NewRNG(cfg.Seed),
	}
	g.catalog = make([]Dims, cfg.Shapes)
	for i := range g.catalog {
		g.catalog[i] = g.drawDims(i)
	}
	return g
}

// Catalog returns the generator's shape catalog, hottest shape first.
// Callers must not mutate it.
func (g *Generator) Catalog() []Dims { return g.catalog }

// drawDims draws one catalog entry. The four §8 aspect classes
// interleave across popularity ranks so hot traffic is not all-square:
// square, inner-product (m=n≪k), tall-skinny (m≫n=k), and flat
// outer-product (m=n≫k).
func (g *Generator) drawDims(i int) Dims {
	min, max := g.cfg.MinDim, g.cfg.MaxDim
	span := func(lo, hi int) int {
		if lo > hi {
			lo = hi
		}
		if hi <= lo {
			return lo
		}
		return lo + g.rng.Intn(hi-lo+1)
	}
	small := max / 4
	if small < min {
		small = min
	}
	switch i % 4 {
	case 0: // square
		d := span(min, max)
		return Dims{M: d, N: d, K: d}
	case 1: // inner-product-ish: m = n ≪ k (the paper's "largeK")
		m := span(min, small)
		return Dims{M: m, N: m, K: span(2*m, max)}
	case 2: // tall-skinny: m ≫ n = k (the paper's "largeM")
		n := span(min, small)
		return Dims{M: span(2*n, max), N: n, K: n}
	default: // flat outer-product: m = n ≫ k
		d := span(2*min, max)
		return Dims{M: d, N: d, K: span(min, d/2)}
	}
}
