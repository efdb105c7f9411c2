package grid

import (
	"fmt"
	"math"
	"slices"
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
// examining every factorization of every rank count from ⌊(1−δ)·p⌋ (at
// least one) to p: at δ = 3 % a 16-rank machine may idle one. Grids
// whose local C tile ⌈m/pm⌉·⌈n/pn⌉ exceeds s are rejected (the partial
// results must stay resident, §6.3); if every candidate is rejected, the
// grid with the smallest C tile is returned as a fallback. A tie keeps
// the grid found first: more ranks, then a smaller pm, then a smaller pn.
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

	var best Grid
	bestCost := -1.0
	fallback, fallbackTile := Grid{Pm: 1, Pn: 1, Pk: 1}, -1 // a single rank where no grid fits m×n×k

	for used := p; used >= minRanks(p, delta); used-- {
		for _, pm := range Divisors(used) {
			for _, pn := range Divisors(used / pm) {
				g := Grid{Pm: pm, Pn: pn, Pk: used / pm / pn}
				tile, ok := g.tile(m, n, k)
				if !ok {
					continue
				}
				if fallbackTile < 0 || tile < fallbackTile {
					fallbackTile, fallback = tile, g
				}
				if tile > s {
					continue
				}
				if cost := g.ModelVolume(m, n, k); bestCost < 0 || cost < bestCost-1e-9 {
					bestCost, best = cost, g
				}
			}
		}
	}
	if bestCost < 0 {
		return fallback
	}
	return best
}

// minRanks is the idle window of δ: a grid on p ranks uses at least
// ⌊(1−δ)·p⌋ of them, and at least one.
func minRanks(p int, delta float64) int {
	return max(1, int(float64(p)*(1-delta)))
}

// tile returns the words of g's largest C tile on an m×n×k product, and
// false where g cuts a dimension finer than its extent.
func (g Grid) tile(m, n, k int) (int, bool) {
	if g.Pm > m || g.Pn > n || g.Pk > k {
		return 0, false
	}
	dm, dn, _ := g.LocalDims(m, n, k)
	return dm * dn, true
}

// Square returns the most square 2D grid on all p ranks, [pr×pc×1] with
// pr ≤ pc and pr as large as possible — the grid shape ScaLAPACK users
// pick by convention (SUMMA's).
func Square(p int) Grid {
	if p < 1 {
		panic(fmt.Sprintf("grid: p = %d", p))
	}
	d := int(math.Sqrt(float64(p)))
	for p%d != 0 {
		d--
	}
	return Grid{Pm: d, Pn: p / d, Pk: 1}
}

// Layers returns the 2.5D decomposition's grid for an m×n×k product on p
// ranks of s words: c layers, c the divisor of p closest to
// min{pS/(mk+nk), p^(1/3)} (at least 1), each layer Square(p/c).
func Layers(m, n, k, p, s int) Grid {
	target := float64(p) * float64(s) / (float64(m)*float64(k) + float64(n)*float64(k))
	target = max(1, min(target, math.Cbrt(float64(p))))
	c, best := 1, math.Inf(1)
	for _, d := range Divisors(p) {
		if dist := math.Abs(float64(d) - target); dist < best {
			c, best = d, dist
		}
	}
	g := Square(p / c)
	g.Pk = c
	return g
}

// Halving is CARMA's BFS steps on the m×n×k product cut into bm×bn C
// blocks: ⌊log₂ p⌋ times, halve the largest extent of the largest
// block's tile together with the team — m, then n, then k on ties — and
// skip an extent the grid cannot halve again without cutting the
// smallest block's to nothing.
func Halving(m, n, k, p, bm, bn int) Grid {
	g := Grid{Pm: 1, Pn: 1, Pk: 1}
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

// Candidates returns the grids COSMA scores for an m×n×k product on p
// ranks of s words at idle tolerance δ: Fit's first, then Square's,
// Layers' and Halving's on one C block, each only where it passes Fit's
// tests — it uses at least ⌊(1−δ)·p⌋ ranks, cuts no dimension finer than
// its extent and its C tile fits s — and is not already listed.
func Candidates(m, n, k, p, s int, delta float64) []Grid {
	out := []Grid{Fit(m, n, k, p, s, delta)}
	for _, g := range []Grid{Square(p), Layers(m, n, k, p, s), Halving(m, n, k, p, 1, 1)} {
		tile, ok := g.tile(m, n, k)
		if ok && tile <= s && g.Ranks() >= minRanks(p, delta) && !slices.Contains(out, g) {
			out = append(out, g)
		}
	}
	return out
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
