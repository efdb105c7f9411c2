package baselines

import (
	"context"
	"fmt"
	"math"
	"math/bits"

	"cosma/internal/algo"
	"cosma/internal/costmodel"
	"cosma/internal/layout"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

// carmaPiece is one rectangle of the output in the recursive layout: the
// sub-block C[rowOff:, colOff:] of width cols, row-distributed over a
// team. local is the caller's band (nil if it is not a team member).
type carmaPiece struct {
	rowOff, colOff int
	cols           int
	dist           layout.RowDist
	local          *matrix.Dense
}

// planCARMA is the communication-avoiding recursive algorithm of Demmel
// et al. [22]: recursively split the largest of (m, n, k) in half together
// with the rank team, until every team is a single rank that multiplies
// its subproblem locally. Only the k-splits need an ascent step (summing
// the two half-teams' partial C); m- and n-splits leave C in the
// recursive layout, which the caller assembles.
//
// CARMA requires a power-of-two rank count (§1 lists this as one of its
// limitations); the plan leaves p − 2^⌊log₂ p⌋ ranks idle, exactly as the
// paper's comparisons do on non-power-of-two allocations.
//
// The model is the recursive row of Table 3 on the team CARMA uses
// (costmodel.Recursive — the √3 factor over COSMA in the limited-memory
// regime is the paper's headline comparison, §6.2); only the busiest
// rank's terms are CARMA's own.
func planCARMA(_ algo.Config, m, n, k, p, s int) (*algo.Plan, error) {
	if m < 1 || n < 1 || k < 1 {
		return nil, fmt.Errorf("baselines: invalid dimensions %d×%d×%d", m, n, k)
	}
	used := 1
	for used*2 <= p {
		used *= 2
	}
	q := costmodel.Recursive(costmodel.Params{M: m, N: n, K: k, P: used, S: s}).Q
	w := float64(m) * float64(n) * float64(k) / float64(used)
	return &algo.Plan{
		Model: algo.Model{
			Name:    "CARMA-recursive",
			Grid:    fmt.Sprintf("recursive p=%d", used),
			Used:    used,
			AvgRecv: q * float64(used) / float64(p),
			// The busiest rank additionally receives a sibling C tile at each
			// k-split ascent.
			MaxRecv:  q + math.Pow(w, 2.0/3.0),
			MaxMsgs:  4 * float64(bits.Len(uint(used))-1), // four transfers per recursion level
			MaxFlops: 2 * w,
		},
		M: m, N: n, K: k, P: p,
		Execute: (&carmaPlan{m: m, n: n, k: k, used: used}).Execute,
	}, nil
}

// carmaPlan is the compiled recursive schedule over a power-of-two
// team of `used` ranks.
type carmaPlan struct {
	m, n, k, used int
}

// Execute is the algo.Plan's Execute.
func (pl *carmaPlan) Execute(ctx context.Context, mach *machine.Machine, scratch *algo.Arena, a, b *matrix.Dense) (*matrix.Dense, error) {
	m, n, k, used := pl.m, pl.n, pl.k, pl.used
	team := make([]int, used)
	for i := range team {
		team[i] = i
	}
	out := matrix.New(m, n)
	err := mach.RunCtx(ctx, func(r *machine.Rank) error {
		// Every rank (including idle ones beyond `used`) walks the same
		// recursion tree; transfers no-op for ranks outside the teams
		// involved, which keeps tags aligned without global metadata.
		aDist := layout.RowDist{Rows: m, Team: team}
		bDist := layout.RowDist{Rows: k, Team: team}
		var aLoc, bLoc *matrix.Dense
		if r.ID() < used {
			ab := aDist.Band(r.ID())
			bb := bDist.Band(r.ID())
			aLoc = scratch.Clone(r.ID(), a.View(ab.Lo, 0, ab.Len(), k))
			bLoc = scratch.Clone(r.ID(), b.View(bb.Lo, 0, bb.Len(), n))
		}
		pieces, err := carmaSolve(r, scratch.Kernel(r.ID()), team, aLoc, bLoc, m, n, k, 1)
		if err != nil {
			return err
		}
		// Assemble my bands of the recursive output layout. Ranks write
		// disjoint regions of the shared result.
		for _, pc := range pieces {
			for idx, id := range pc.dist.Team {
				if id != r.ID() {
					continue
				}
				band := pc.dist.Band(idx)
				if band.Len() == 0 || pc.cols == 0 {
					continue
				}
				out.View(pc.rowOff+band.Lo, pc.colOff, band.Len(), pc.cols).CopyFrom(pc.local)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// carmaSolve handles one recursion node. All ranks of the original
// machine call it with identical metadata; only members of team carry
// data. node identifies the tree position for tag derivation.
// Cancellation is polled once per node — the recursion's analogue of a
// communication-round boundary.
func carmaSolve(r *machine.Rank, kern *matrix.Kernel, team []int, aLoc, bLoc *matrix.Dense, mr, nr, kr, node int) ([]carmaPiece, error) {
	if err := r.Err(); err != nil {
		return nil, err
	}
	q := len(team)
	aDist := layout.RowDist{Rows: mr, Team: team}
	bDist := layout.RowDist{Rows: kr, Team: team}
	if q == 1 {
		var cLoc *matrix.Dense
		if team[0] == r.ID() {
			cLoc = matrix.New(mr, nr)
			kern.Mul(cLoc, aLoc, bLoc)
			r.Compute(matrix.MulFlops(mr, nr, kr))
		}
		return []carmaPiece{{cols: nr, dist: layout.RowDist{Rows: mr, Team: team}, local: cLoc}}, nil
	}

	team1, team2 := team[:q/2], team[q/2:]
	tag := node * 8192

	switch largestDim(mr, nr, kr) {
	case 'm':
		mh := mr / 2
		a1 := transferTo(r, aDist, aLoc, layout.Range{Lo: 0, Hi: mh}, layout.Range{Lo: 0, Hi: kr}, team1, tag)
		a2 := transferTo(r, aDist, aLoc, layout.Range{Lo: mh, Hi: mr}, layout.Range{Lo: 0, Hi: kr}, team2, tag+1)
		b1 := transferTo(r, bDist, bLoc, layout.Range{Lo: 0, Hi: kr}, layout.Range{Lo: 0, Hi: nr}, team1, tag+2)
		b2 := transferTo(r, bDist, bLoc, layout.Range{Lo: 0, Hi: kr}, layout.Range{Lo: 0, Hi: nr}, team2, tag+3)
		p1, err := carmaSolve(r, kern, team1, a1, b1, mh, nr, kr, 2*node)
		if err != nil {
			return nil, err
		}
		p2, err := carmaSolve(r, kern, team2, a2, b2, mr-mh, nr, kr, 2*node+1)
		if err != nil {
			return nil, err
		}
		for i := range p2 {
			p2[i].rowOff += mh
		}
		return append(p1, p2...), nil

	case 'n':
		nh := nr / 2
		a1 := transferTo(r, aDist, aLoc, layout.Range{Lo: 0, Hi: mr}, layout.Range{Lo: 0, Hi: kr}, team1, tag)
		a2 := transferTo(r, aDist, aLoc, layout.Range{Lo: 0, Hi: mr}, layout.Range{Lo: 0, Hi: kr}, team2, tag+1)
		b1 := transferTo(r, bDist, bLoc, layout.Range{Lo: 0, Hi: kr}, layout.Range{Lo: 0, Hi: nh}, team1, tag+2)
		b2 := transferTo(r, bDist, bLoc, layout.Range{Lo: 0, Hi: kr}, layout.Range{Lo: nh, Hi: nr}, team2, tag+3)
		p1, err := carmaSolve(r, kern, team1, a1, b1, mr, nh, kr, 2*node)
		if err != nil {
			return nil, err
		}
		p2, err := carmaSolve(r, kern, team2, a2, b2, mr, nr-nh, kr, 2*node+1)
		if err != nil {
			return nil, err
		}
		for i := range p2 {
			p2[i].colOff += nh
		}
		return append(p1, p2...), nil

	default: // 'k'
		kh := kr / 2
		a1 := transferTo(r, aDist, aLoc, layout.Range{Lo: 0, Hi: mr}, layout.Range{Lo: 0, Hi: kh}, team1, tag)
		a2 := transferTo(r, aDist, aLoc, layout.Range{Lo: 0, Hi: mr}, layout.Range{Lo: kh, Hi: kr}, team2, tag+1)
		b1 := transferTo(r, bDist, bLoc, layout.Range{Lo: 0, Hi: kh}, layout.Range{Lo: 0, Hi: nr}, team1, tag+2)
		b2 := transferTo(r, bDist, bLoc, layout.Range{Lo: kh, Hi: kr}, layout.Range{Lo: 0, Hi: nr}, team2, tag+3)
		p1, err := carmaSolve(r, kern, team1, a1, b1, mr, nr, kh, 2*node)
		if err != nil {
			return nil, err
		}
		p2, err := carmaSolve(r, kern, team2, a2, b2, mr, nr, kr-kh, 2*node+1)
		if err != nil {
			return nil, err
		}

		// Ascent: sum both halves' partial C into the parent row
		// distribution.
		cDist := layout.RowDist{Rows: mr, Team: team}
		var cLoc *matrix.Dense
		if i := indexIn(team, r.ID()); i >= 0 {
			cLoc = matrix.New(cDist.Band(i).Len(), nr)
		}
		idx := 16
		for _, pc := range append(p1, p2...) {
			layout.Transfer(r, pc.dist, pc.local,
				layout.Range{Lo: 0, Hi: pc.dist.Rows}, layout.Range{Lo: 0, Hi: pc.cols},
				cDist, pc.rowOff, pc.colOff, cLoc, true, tag+idx)
			idx++
		}
		return []carmaPiece{{cols: nr, dist: cDist, local: cLoc}}, nil
	}
}

// transferTo redistributes the sub-block rows×cols of a row-distributed
// matrix onto a row distribution over dstTeam, allocating the destination
// block for members. Non-members of either team participate as no-ops.
func transferTo(r *machine.Rank, src layout.RowDist, srcLocal *matrix.Dense,
	rows, cols layout.Range, dstTeam []int, tag int) *matrix.Dense {
	dst := layout.RowDist{Rows: rows.Len(), Team: dstTeam}
	var dstLocal *matrix.Dense
	if i := indexIn(dstTeam, r.ID()); i >= 0 {
		dstLocal = matrix.New(dst.Band(i).Len(), cols.Len())
	}
	layout.Transfer(r, src, srcLocal, rows, cols, dst, 0, 0, dstLocal, false, tag)
	return dstLocal
}

func indexIn(team []int, id int) int {
	for i, t := range team {
		if t == id {
			return i
		}
	}
	return -1
}

// largestDim picks the dimension CARMA splits, preferring m, then n, then
// k on ties (the recursion then matches the paper's description of
// splitting the largest dimension).
func largestDim(m, n, k int) byte {
	if m >= n && m >= k {
		return 'm'
	}
	if n >= k {
		return 'n'
	}
	return 'k'
}
