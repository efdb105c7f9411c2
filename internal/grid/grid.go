package grid

import (
	"fmt"
	"sort"
)

// Grid is a three-dimensional processor grid. Dimension pm partitions the
// m extent (rows of A and C), pn the n extent (columns of B and C) and pk
// the k extent (the contraction dimension).
type Grid struct {
	Pm, Pn, Pk int
}

// Ranks returns the number of ranks the grid uses.
func (g Grid) Ranks() int { return g.Pm * g.Pn * g.Pk }

// Coords maps a rank id in [0, Ranks()) to grid coordinates. The m index
// varies fastest, then n, then k.
func (g Grid) Coords(rank int) (im, in, ik int) {
	if rank < 0 || rank >= g.Ranks() {
		panic(fmt.Sprintf("grid: rank %d out of %v", rank, g))
	}
	im = rank % g.Pm
	in = (rank / g.Pm) % g.Pn
	ik = rank / (g.Pm * g.Pn)
	return im, in, ik
}

// Rank maps grid coordinates to a rank id.
func (g Grid) Rank(im, in, ik int) int {
	if im < 0 || im >= g.Pm || in < 0 || in >= g.Pn || ik < 0 || ik >= g.Pk {
		panic(fmt.Sprintf("grid: coords (%d,%d,%d) out of %v", im, in, ik, g))
	}
	return im + g.Pm*(in+g.Pn*ik)
}

// RowGroup returns the rank ids sharing (in, ik) — the ranks across which
// the m dimension is partitioned.
func (g Grid) RowGroup(in, ik int) []int {
	out := make([]int, g.Pm)
	for im := 0; im < g.Pm; im++ {
		out[im] = g.Rank(im, in, ik)
	}
	return out
}

// ColGroup returns the rank ids sharing (im, ik).
func (g Grid) ColGroup(im, ik int) []int {
	out := make([]int, g.Pn)
	for in := 0; in < g.Pn; in++ {
		out[in] = g.Rank(im, in, ik)
	}
	return out
}

// FiberGroup returns the rank ids sharing (im, in) — the k-dimension
// reduction group.
func (g Grid) FiberGroup(im, in int) []int {
	out := make([]int, g.Pk)
	for ik := 0; ik < g.Pk; ik++ {
		out[ik] = g.Rank(im, in, ik)
	}
	return out
}

func (g Grid) String() string {
	return fmt.Sprintf("[%d×%d×%d]", g.Pm, g.Pn, g.Pk)
}

// LocalDims returns the local-domain extents ⌈m/pm⌉ × ⌈n/pn⌉ × ⌈k/pk⌉ of
// the grid for an m×n×k multiplication.
func (g Grid) LocalDims(m, n, k int) (dm, dn, dk int) {
	return ceilDiv(m, g.Pm), ceilDiv(n, g.Pn), ceilDiv(k, g.Pk)
}

// ModelVolume estimates the average per-rank received words of a
// COSMA-style schedule on this grid: each rank assembles its dm×dk panel
// of A (receiving the (pn−1)/pn share it does not already hold), its
// dk×dn panel of B, and takes part in the k-dimension reduce-scatter of
// its dm×dn C tile, in which every fiber member receives its 1/pk share
// from each of the others: dm·dn·(pk−1)/pk received words. It is Fit's O(1)
// objective; the number a plan reports is core's per-rank count, which
// this equals on evenly divisible shapes.
func (g Grid) ModelVolume(m, n, k int) float64 {
	dm, dn, dk := g.LocalDims(m, n, k)
	va := float64(dm*dk) * float64(g.Pn-1) / float64(g.Pn)
	vb := float64(dk*dn) * float64(g.Pm-1) / float64(g.Pm)
	vc := float64(dm*dn) * float64(g.Pk-1) / float64(g.Pk)
	return va + vb + vc
}

// Divisors returns the sorted divisors of n.
func Divisors(n int) []int {
	if n < 1 {
		panic(fmt.Sprintf("grid: divisors of %d", n))
	}
	var ds []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			ds = append(ds, d)
			if d != n/d {
				ds = append(ds, n/d)
			}
		}
	}
	sort.Ints(ds)
	return ds
}

// Fit chooses the communication-minimizing grid for an m×n×k
// multiplication on at most p ranks with local memories of s words,
// examining every factorization of every rank count in
// [(1−δ)·p, p]. Grids whose local C tile ⌈m/pm⌉·⌈n/pn⌉ exceeds s are
// rejected (the partial results must stay resident, §6.3); if every
// candidate is rejected, the grid with the smallest C tile is returned as
// a fallback. Ties prefer more ranks, then a larger pk (betterTie).
//
// This is FitRanks of Algorithm 1 line 3 with tunable idle fraction δ
// (§7.1, default 0.03 in the paper's experiments).
func Fit(m, n, k, p, s int, delta float64) Grid {
	if m < 1 || n < 1 || k < 1 {
		panic(fmt.Sprintf("grid: dims %d×%d×%d", m, n, k))
	}
	if p < 1 {
		panic(fmt.Sprintf("grid: p = %d", p))
	}
	if delta < 0 || delta >= 1 {
		panic(fmt.Sprintf("grid: delta = %v out of [0,1)", delta))
	}
	minRanks := int(float64(p) * (1 - delta))
	if minRanks < 1 {
		minRanks = 1
	}

	var best Grid
	bestCost := -1.0
	var fallback Grid
	fallbackTile := -1

	for used := p; used >= minRanks; used-- {
		for _, pm := range Divisors(used) {
			if pm > m {
				continue
			}
			rest := used / pm
			for _, pn := range Divisors(rest) {
				if pn > n {
					continue
				}
				pk := rest / pn
				if pk > k {
					continue
				}
				g := Grid{Pm: pm, Pn: pn, Pk: pk}
				dm, dn, _ := g.LocalDims(m, n, k)
				if tile := dm * dn; fallbackTile < 0 || tile < fallbackTile {
					fallbackTile, fallback = tile, g
				}
				if dm*dn > s {
					continue
				}
				cost := g.ModelVolume(m, n, k)
				if bestCost < 0 || cost < bestCost-1e-9 ||
					(cost < bestCost+1e-9 && betterTie(g, best)) {
					bestCost, best = cost, g
				}
			}
		}
	}
	if bestCost < 0 {
		if fallbackTile < 0 {
			// p exceeds the iteration space in every factorization; fall
			// back to a single rank.
			return Grid{Pm: 1, Pn: 1, Pk: 1}
		}
		return fallback
	}
	return best
}

// betterTie prefers, at equal cost, grids using more ranks and then grids
// with a larger pk (which shortens the per-rank k extent).
func betterTie(a, b Grid) bool {
	if a.Ranks() != b.Ranks() {
		return a.Ranks() > b.Ranks()
	}
	return a.Pk > b.Pk
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
