package workload

import "math"

// RNG is a tiny, fast, seedable generator (SplitMix64) for use inside
// benchmark and load-generation loops: one 64-bit multiply-xorshift
// chain per draw, no locking, no allocation. It is deliberately not
// math/rand — a load generator's draws sit between two requests, and
// its bounded draws must be cheap and unbiased (see Uint32n).
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Equal seeds yield equal
// streams — the property every seeded catalog and shape sequence rests
// on.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits (SplitMix64: Steele,
// Lea, Flood — "Fast splittable pseudorandom number generators").
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32n returns an unbiased uniform draw in [0, n) using Lemire's
// multiply-shift rejection method ("Fast Random Integer Generation in
// an Interval", ACM TOMACS 2019): one 32×32→64 multiply in the common
// case, with rejection only for the 2³² mod n lowest fraction of
// draws — no modulo on the hot path and none of the modulo bias of
// the naive v % n. This is the UniformUint32 idiom of the
// akalin/random reference implementation.
func (r *RNG) Uint32n(n uint32) uint32 {
	if n == 0 {
		panic("workload: Uint32n(0)")
	}
	v := uint32(r.Uint64())
	prod := uint64(v) * uint64(n)
	if low := uint32(prod); low < n {
		thresh := -n % n // (2³² − n) mod n
		for low < thresh {
			v = uint32(r.Uint64())
			prod = uint64(v) * uint64(n)
			low = uint32(prod)
		}
	}
	return uint32(prod >> 32)
}

// Intn returns an unbiased uniform draw in [0, n) for n in (0, 2³²].
func (r *RNG) Intn(n int) int {
	if n <= 0 || int64(n) > 1<<32 {
		panic("workload: Intn range out of (0, 2³²]")
	}
	switch n {
	case 1:
		return 0
	case 1 << 32: // uint32(n) would be 0: every 32-bit value is a draw
		return int(uint32(r.Uint64()))
	}
	return int(r.Uint32n(uint32(n)))
}

// Float64 returns a uniform draw in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Zipf samples ranks 0..n−1 with probability ∝ 1/(rank+1)^s — the
// popularity law of real request mixes, where a handful of shapes
// dominate and a long tail stresses cache eviction. Sampling is a
// binary search over the precomputed cumulative weights, so a draw is
// O(log n) with no rejection.
type Zipf struct {
	cum []float64
}

// NewZipf builds a sampler over n ranks with exponent s > 0 (s ≈ 1 is
// the classic web-workload value; larger s concentrates more mass on
// the top ranks).
func NewZipf(n int, s float64) *Zipf {
	if n < 1 {
		panic("workload: NewZipf needs n ≥ 1")
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return &Zipf{cum: cum}
}

// Sample draws one rank using rng.
func (z *Zipf) Sample(rng *RNG) int {
	u := rng.Float64() * z.cum[len(z.cum)-1]
	// Smallest index whose cumulative weight covers u.
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// P returns the sampling probability of rank i, for frequency checks.
func (z *Zipf) P(i int) float64 {
	total := z.cum[len(z.cum)-1]
	if i == 0 {
		return z.cum[0] / total
	}
	return (z.cum[i] - z.cum[i-1]) / total
}
