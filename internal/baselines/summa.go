package baselines

import (
	"fmt"
	"math"

	"cosma/internal/algo"
	"cosma/internal/core"
	"cosma/internal/grid"
)

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

// planSUMMA is the scalable universal matrix multiplication algorithm of
// van de Geijn and Watts — the 2D decomposition used by ScaLAPACK's
// PDGEMM: Algorithm 1 on the fixed grid [pr×pc×1], the most square
// factorization of p, every rank used. Each rank (i, j) owns the blocks
// A[Mi, Kj], B[Ki, Nj] and computes C[Mi, Nj]; no fiber, so C never moves.
// What the ranks receive (the k(m+n)/√p row of Table 3) is the plan's own
// count. cfg compiles it exactly like COSMA's — overlap (§7.3) and A
// bands alike — so timed comparisons pit like schedules against each other.
func planSUMMA(cfg algo.Config, m, n, k, p, s int) (*algo.Plan, error) {
	pr, pc := NearSquare(p)
	return core.NewPlan("ScaLAPACK/SUMMA-2D", cfg, grid.Grid{Pm: pr, Pn: pc, Pk: 1}, m, n, k, p, s, false)
}
