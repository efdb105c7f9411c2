package baselines

import (
	"fmt"

	"cosma/internal/algo"
	"cosma/internal/core"
	"cosma/internal/grid"
)

// planCARMA is the communication-avoiding recursive algorithm of Demmel
// et al. [22] as a grid policy over core's Algorithm 1 schedule. Its
// BFS steps split the largest of (m, n, k) in half together with the
// rank team (grid.Halving); its DFS steps, taken while that grid's C tile
// and one outer-product pair do not fit s, halve the larger of m and n
// sequentially, so the ranks multiply the product as bm×bn C blocks one
// after another on the grid the BFS steps give the block
// (core.NewBlockedPlan). The operands the blocks read again are the
// extra words CARMA pays over COSMA in the limited-memory regime (§6.2).
//
// CARMA requires a power-of-two rank count (§1 lists this as one of its
// limitations); the plan leaves p − 2^⌊log₂ p⌋ ranks idle, exactly as the
// paper's comparisons do on non-power-of-two allocations.
func planCARMA(cfg algo.Config, m, n, k, p, s int) (*algo.Plan, error) {
	if m < 1 || n < 1 || k < 1 || p < 1 {
		return nil, fmt.Errorf("baselines: invalid problem %d×%d×%d on p = %d", m, n, k, p)
	}
	bm, bn := 1, 1
	for {
		g := grid.Halving(m, n, k, p, bm, bn)
		dm, dn, _ := g.LocalDims(ceilDiv(m, bm), ceilDiv(n, bn), k)
		rowsLeft, colsLeft := 2*bm <= m, 2*bn <= n // can a block still be halved
		switch {
		case dm*dn+dm+dn <= s || !rowsLeft && !colsLeft:
			return core.NewBlockedPlan("CARMA-recursive", cfg, g, bm, bn, m, n, k, p, s)
		case rowsLeft && (ceilDiv(m, bm) >= ceilDiv(n, bn) || !colsLeft):
			bm *= 2
		default:
			bn *= 2
		}
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
