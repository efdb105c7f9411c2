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
// rank team (carmaGrid); its DFS steps, taken while that grid's C tile
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
		g := carmaGrid(m, n, k, p, bm, bn)
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

// carmaGrid is CARMA's BFS steps on the m×n×k product cut into bm×bn C
// blocks: ⌊log₂ p⌋ times, halve the largest extent of the largest
// block's tile together with the team — m, then n, then k on ties — and
// skip an extent the grid cannot halve again without cutting the
// smallest block's to nothing.
func carmaGrid(m, n, k, p, bm, bn int) grid.Grid {
	g := grid.Grid{Pm: 1, Pn: 1, Pk: 1}
	for 2*g.Ranks() <= p {
		dm, dn, dk := g.LocalDims(ceilDiv(m, bm), ceilDiv(n, bn), k)
		if 2*g.Pm > m/bm {
			dm = 0
		}
		if 2*g.Pn > n/bn {
			dn = 0
		}
		if 2*g.Pk > k {
			dk = 0
		}
		switch {
		case dm == 0 && dn == 0 && dk == 0:
			return g
		case dm >= dn && dm >= dk:
			g.Pm *= 2
		case dn >= dk:
			g.Pn *= 2
		default:
			g.Pk *= 2
		}
	}
	return g
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
