package workload

import (
	"fmt"
	"math"
)

// Shape is one of the paper's four matrix aspect classes.
type Shape int

// The four shapes of Table 4.
const (
	Square Shape = iota // m = n = k
	LargeK              // m = n ≪ k
	LargeM              // m ≫ n = k
	Flat                // m = n ≫ k
)

func (s Shape) String() string {
	switch s {
	case Square:
		return "square"
	case LargeK:
		return "largeK"
	case LargeM:
		return "largeM"
	case Flat:
		return "flat"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// Regime is one of the paper's three benchmark regimes (§8).
type Regime int

// The three regimes of each Figure 6–11 panel.
const (
	StrongScaling Regime = iota // fixed problem, growing p
	LimitedMemory               // fixed input words per core: pS/I const
	ExtraMemory                 // p^{2/3}·S/I const: p^{1/3} spare copies
)

func (r Regime) String() string {
	switch r {
	case StrongScaling:
		return "strong scaling"
	case LimitedMemory:
		return "limited memory"
	case ExtraMemory:
		return "extra memory"
	}
	return fmt.Sprintf("Regime(%d)", int(r))
}

// Config is one experiment point: multiply an M×K by a K×N matrix on P
// cores with S words of memory per core.
type Config struct {
	Shape   Shape
	Regime  Regime
	M, N, K int
	P       int
	S       int
}

// MemoryWordsPerCore is the paper's per-core memory: 64 GiB per 36-core
// node → ~1.78 GiB/core → S ≈ 2.2e8 words. We use 2²⁷ ≈ 1.34e8 words/core,
// the nearest power of two, so regime boundaries fall where the paper's do.
const MemoryWordsPerCore = 1 << 27

// Generate returns the experiment point for a shape, regime and core
// count, following the figure captions:
//
//	square strong:  m = n = k = 16384
//	square limited: m = n = k = ∛(p·S/3)·√2-style fit (n = √(pS/3))
//	square extra:   n = √(p^{2/3}·S/3)
//	largeK strong:  m = n = 17408, k = 3735552 (RPA, 128 water molecules)
//	largeK limited: m = n = 979·p^{1/3}, k = 1.184·p^{2/3}·979
//	largeK extra:   m = n = 979·p^{2/9}, k = 1.184·979·p^{4/9}
//	largeM:         largeK with m and k exchanged
//	flat strong:    m = n = 131072, k = 512
//	flat scaling:   rank-k update, k = 256, m = n grown with p
func Generate(shape Shape, regime Regime, p int) Config {
	if p < 1 {
		panic(fmt.Sprintf("workload: p = %d", p))
	}
	s := MemoryWordsPerCore
	cfg := Config{Shape: shape, Regime: regime, P: p, S: s}
	pf := float64(p)
	switch shape {
	case Square:
		switch regime {
		case StrongScaling:
			cfg.M, cfg.N, cfg.K = 16384, 16384, 16384
		case LimitedMemory:
			n := int(math.Sqrt(pf * float64(s) / 3))
			cfg.M, cfg.N, cfg.K = n, n, n
		case ExtraMemory:
			n := int(math.Sqrt(math.Pow(pf, 2.0/3.0) * float64(s) / 3))
			cfg.M, cfg.N, cfg.K = n, n, n
		}
	case LargeK, LargeM:
		var m, k int
		switch regime {
		case StrongScaling:
			m, k = 17408, 3735552
		case LimitedMemory:
			m = int(979 * math.Cbrt(pf) * scaleDown)
			k = int(1.184 * 979 * math.Pow(pf, 2.0/3.0) * scaleDown)
		case ExtraMemory:
			m = int(979 * math.Pow(pf, 2.0/9.0) * scaleDown)
			k = int(1.184 * 979 * math.Pow(pf, 4.0/9.0) * scaleDown)
		}
		if m < 1 {
			m = 1
		}
		if k < 1 {
			k = 1
		}
		if shape == LargeK {
			cfg.M, cfg.N, cfg.K = m, m, k
		} else {
			cfg.M, cfg.N, cfg.K = k, m, m
		}
	case Flat:
		switch regime {
		case StrongScaling:
			cfg.M, cfg.N, cfg.K = 131072, 131072, 512
		case LimitedMemory:
			n := int(math.Sqrt(pf * float64(s) / 3))
			cfg.M, cfg.N, cfg.K = n, n, 256
		case ExtraMemory:
			n := int(math.Sqrt(math.Pow(pf, 2.0/3.0) * float64(s) / 3))
			cfg.M, cfg.N, cfg.K = n, n, 256
		}
	}
	return cfg
}

// scaleDown keeps the weak-scaling largeK/largeM dimension formulas in
// the same proportion as the paper's while matching our S.
const scaleDown = 1.0

// Dims is one request shape of a serving mix: multiply an M×K by a
// K×N matrix.
type Dims struct {
	M, N, K int
}

func (d Dims) String() string { return fmt.Sprintf("%d×%d×%d", d.M, d.N, d.K) }

// RPA returns the random-phase-approximation MMM dimensions for w water
// molecules (§8): m = n = 136·w and k = 228·w².
func RPA(w int) (m, n, k int) {
	if w < 1 {
		panic(fmt.Sprintf("workload: %d molecules", w))
	}
	return 136 * w, 136 * w, 228 * w * w
}

// InputWords returns the total input and output footprint mn + mk + nk.
func (c Config) InputWords() float64 {
	return float64(c.M)*float64(c.N) + float64(c.M)*float64(c.K) + float64(c.N)*float64(c.K)
}

// CoreCounts returns the sweep of core counts used across the figures.
// As in §8, the counts mix powers of two with allocation-determined and
// adversarial values (1000, 9216) that punish algorithms restricted to
// special processor counts.
func CoreCounts() []int {
	return []int{128, 256, 512, 1000, 2048, 4096, 9216, 16384}
}

// String renders the configuration compactly.
func (c Config) String() string {
	return fmt.Sprintf("%s/%s m=%d n=%d k=%d p=%d S=%d",
		c.Shape, c.Regime, c.M, c.N, c.K, c.P, c.S)
}
