package baselines

import (
	"fmt"
	"math"

	"cosma/internal/algo"
	"cosma/internal/core"
	"cosma/internal/grid"
)

// SUMMA is the scalable universal matrix multiplication algorithm of van
// de Geijn and Watts on a pr×pc process grid — the 2D decomposition used
// by ScaLAPACK's PDGEMM. The grid is the most square factorization of p;
// every rank is used.
type SUMMA struct {
	// Overlap software-pipelines the round loop exactly like COSMA's
	// (§7.3): round i+1's panels are prefetched with non-blocking
	// broadcasts while the kernel multiplies round i's, so timed
	// comparisons pit overlapped COSMA against overlapped SUMMA.
	Overlap bool
}

func init() {
	algo.Register(algo.Spec{
		Name:       "summa",
		Aliases:    []string{"scalapack", "2d"},
		Summary:    "2D SUMMA on the most square grid — what ScaLAPACK's PDGEMM implements",
		Order:      1,
		Comparison: true,
		New:        func(cfg algo.Config) algo.Planner { return SUMMA{Overlap: cfg.Overlap} },
	})
	algo.Register(algo.Spec{
		Name:       "2.5d",
		Aliases:    []string{"ctf", "c25d"},
		Summary:    "2.5D decomposition of Solomonik and Demmel — what CTF implements",
		Order:      2,
		Comparison: true,
		New:        func(cfg algo.Config) algo.Planner { return C25D{Overlap: cfg.Overlap} },
	})
	algo.Register(algo.Spec{
		Name:       "carma",
		Aliases:    []string{"recursive"},
		Summary:    "recursive split-largest-dimension decomposition of Demmel et al.",
		Order:      3,
		Comparison: true,
		New:        func(cfg algo.Config) algo.Planner { return CARMA{} },
	})
	algo.Register(algo.Spec{
		Name:       "cannon",
		Aliases:    []string{"torus"},
		Summary:    "Cannon's algorithm on a square torus (1969) — needs square p and divisible dims",
		Order:      4,
		Comparison: false, // the paper's comparison set (§9) excludes it
		New:        func(cfg algo.Config) algo.Planner { return Cannon{} },
	})
}

// Name implements algo.Planner.
func (SUMMA) Name() string { return "ScaLAPACK/SUMMA-2D" }

// NearSquare factors p into pr·pc with pr ≤ pc and pr as large as
// possible — the grid shape ScaLAPACK users pick by convention.
func NearSquare(p int) (pr, pc int) {
	if p < 1 {
		panic(fmt.Sprintf("baselines: p = %d", p))
	}
	for d := int(math.Sqrt(float64(p))); d >= 1; d-- {
		if p%d == 0 {
			return d, p / d
		}
	}
	return 1, p
}

// Plan implements algo.Planner: Algorithm 1 on the fixed 2D grid
// [pr×pc×1] — each rank (i, j) owns the blocks A[Mi, Kj], B[Ki, Nj] and
// computes C[Mi, Nj]; no fiber, so C never moves. What the ranks receive
// (the k(m+n)/√p row of Table 3) is the plan's own count.
func (s SUMMA) Plan(m, n, k, p, sMem int) (algo.Plan, error) {
	pr, pc := NearSquare(p)
	return core.NewPlan(s.Name(), grid.Grid{Pm: pr, Pn: pc, Pk: 1}, m, n, k, p, sMem, s.Overlap, false)
}
