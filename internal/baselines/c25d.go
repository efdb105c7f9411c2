package baselines

import (
	"math"

	"cosma/internal/algo"
	"cosma/internal/core"
	"cosma/internal/grid"
)

// Layers returns the replication factor and layer grid the 2.5D
// decomposition picks for the given problem: the divisor of p closest to
// min{pS/(mk+nk), p^(1/3)} (at least 1), with the remaining p/c factored
// nearly square.
func Layers(m, n, k, p, sMem int) (pr, pc, c int) {
	target := float64(p) * float64(sMem) / (float64(m)*float64(k) + float64(n)*float64(k))
	if limit := math.Cbrt(float64(p)); target > limit {
		target = limit
	}
	if target < 1 {
		target = 1
	}
	bestC := 1
	bestDist := math.Inf(1)
	for d := 1; d <= p; d++ {
		if p%d != 0 {
			continue
		}
		if dist := math.Abs(float64(d) - target); dist < bestDist {
			bestDist, bestC = dist, d
		}
	}
	pr, pc = NearSquare(p / bestC)
	return pr, pc, bestC
}

// plan25D is the 2.5D decomposition of Solomonik and Demmel — the
// algorithm CTF implements (§2.4): Algorithm 1 on the fixed grid
// [pr × pc × c] of Layers. The k dimension is cut into c slabs, the inputs
// initially live on layer 0 and are scattered to the layer that owns their
// slab, each layer runs SUMMA on its slab, and the partial C results are
// reduced across layers back to layer 0. The replication factor c targets
// c* = pS/(mk+nk) (§2.4), clamped to the divisors of p; with c = 1 the
// algorithm degenerates to plain SUMMA, with c = p^(1/3) to the 3D
// decomposition of Agarwal et al.
func plan25D(cfg algo.Config, m, n, k, p, s int) (*algo.Plan, error) {
	pr, pc, c := Layers(m, n, k, p, s)
	return core.NewPlan("CTF/2.5D", cfg, grid.Grid{Pm: pr, Pn: pc, Pk: c}, m, n, k, p, s, true)
}
