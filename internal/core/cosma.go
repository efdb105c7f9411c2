package core

import (
	"context"
	"fmt"
	"sort"

	"cosma/internal/algo"
	"cosma/internal/comm"
	"cosma/internal/grid"
	"cosma/internal/layout"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

// DefaultDelta is the default idle-rank tolerance of the grid fitting
// step, matching the paper's Piz Daint experiments (§7.1).
const DefaultDelta = 0.03

// tags for the communication rounds.
const (
	tagA = 1 << 20
	tagB = 2 << 20
	tagC = 3 << 20
	// tagOut carries the multi-process result gather: every rank sends
	// its share of C to rank 0 (tag offset by sender id).
	tagOut = 4 << 20
	// tagInA/tagInB carry the layer-0 input scatter (plan.layer0).
	tagInA = 5 << 20
	tagInB = 6 << 20
)

// plan is Algorithm 1's compiled schedule for one problem shape on one
// processor grid: the latency-minimizing step, the round segments of
// every k slab and the count of what its ranks receive. COSMA, SUMMA
// and 2.5D differ only in how they choose the grid. It is immutable
// after NewPlan returns.
type plan struct {
	m, n, k, p int
	g          grid.Grid
	step       int
	segs       [][]layout.Range // round segments per ik slab index
	overlap    bool
	// layer0 is 2.5D's initial layout: the inputs live on the ik = 0
	// layer, whose ranks mail every other layer its pieces before the
	// round loop. Otherwise every rank starts with its own pieces (§7.6).
	layer0 bool
}

// Plan is COSMA: the communication-optimal S-partition schedule on the
// grid §7.1 fits, idling up to cfg.Delta·p ranks (zero means
// DefaultDelta). All grid fitting and round-schedule construction happens
// here, once per shape.
func Plan(cfg algo.Config, m, n, k, p, s int) (*algo.Plan, error) {
	if m < 1 || n < 1 || k < 1 {
		return nil, fmt.Errorf("core: invalid dimensions %d×%d×%d", m, n, k)
	}
	if p < 1 {
		return nil, fmt.Errorf("core: p = %d must be ≥ 1", p)
	}
	if cfg.Delta == 0 {
		cfg.Delta = DefaultDelta
	}
	return NewPlan("COSMA", grid.Fit(m, n, k, p, s, cfg.Delta), m, n, k, p, s, cfg.Overlap, false)
}

// NewPlan compiles Algorithm 1's broadcast–multiply–reduce schedule for
// an m×k by k×n multiplication on the grid g of a p-rank machine with
// s words per rank, reported under the algorithm name. The grid is the
// caller's policy — COSMA fits it (§7.1), SUMMA and 2.5D fix it upfront;
// the model is not: the plan counts its own schedule. overlap pipelines
// the round loop (§7.3); layer0 starts the inputs on the ik = 0 layer
// (2.5D). A grid longer than a dimension it cuts is refused with
// algo.ErrUnsupportedShape.
func NewPlan(name string, g grid.Grid, m, n, k, p, s int, overlap, layer0 bool) (*algo.Plan, error) {
	if m < 1 || n < 1 || k < 1 || g.Pm < 1 || g.Pn < 1 || g.Pk < 1 || g.Ranks() > p {
		return nil, fmt.Errorf("core: grid %v does not fit %d×%d×%d on p = %d", g, m, n, k, p)
	}
	if g.Pm > m || g.Pn > n || g.Pk > k {
		return nil, fmt.Errorf("core: grid %v exceeds %d×%d×%d: %w", g, m, n, k, algo.ErrUnsupportedShape)
	}
	dmMax, dnMax, _ := g.LocalDims(m, n, k)
	step := StepSize(s, dmMax, dnMax)
	segs := make([][]layout.Range, g.Pk)
	for ik := 0; ik < g.Pk; ik++ {
		slab := layout.Block(k, g.Pk, ik)
		aParts := layout.Split(slab.Len(), g.Pn)
		bParts := layout.Split(slab.Len(), g.Pm)
		segs[ik] = segments(slab.Len(), aParts, bParts, step)
	}
	pl := &plan{
		m: m, n: n, k: k, p: p,
		g: g, step: step, segs: segs,
		overlap: overlap, layer0: layer0,
	}
	d := pl.geometry()
	return &algo.Plan{
		Model: pl.count(name, d),
		M:     m, N: n, K: k, P: p,
		Geometry:    &d,
		Overlap:     overlap,
		Distributed: true,
		Execute:     pl.Execute,
	}, nil
}

// geometry is the §6.3 schedule geometry the plan publishes.
func (pl *plan) geometry() algo.Decomposition {
	dm, dn, dk := pl.g.LocalDims(pl.m, pl.n, pl.k)
	rounds := 0
	for _, segs := range pl.segs {
		rounds = max(rounds, len(segs))
	}
	return algo.Decomposition{
		GridPm: pl.g.Pm, GridPn: pl.g.Pn, GridPk: pl.g.Pk,
		RanksUsed: pl.g.Ranks(),
		DomainM:   dm, DomainN: dn, DomainK: dk,
		StepSize: pl.step,
		Rounds:   rounds,
	}
}

// Execute is the algo.Plan's Execute. Every rank reads its pieces of a and b
// in place, as views, for the whole run. The returned matrix is
// assembled from the ranks' shares of C; the share payloads (loaned from
// the machine pool by the fiber reduction) are released back once copied
// out. On a multi-process machine every rank forwards its share to
// rank 0 (the tagOut gather), so only the process hosting rank 0
// assembles the product — the others return a zero matrix.
func (pl *plan) Execute(ctx context.Context, mach *machine.Machine, scratch *algo.Arena, a, b *matrix.Dense) (*matrix.Dense, error) {
	multi := mach.MultiProcess()
	shares := make([][]float64, pl.g.Ranks()) // indexed by rank
	err := mach.RunCtx(ctx, func(r *machine.Rank) error {
		if r.ID() >= pl.g.Ranks() {
			return nil // idle rank left out by the grid fitting
		}
		share, err := pl.rankProgram(r, scratch, a, b)
		if err != nil || !multi {
			shares[r.ID()] = share
			return err
		}
		pl.gatherShares(r, share, shares)
		return nil
	})
	if err != nil {
		return nil, err
	}

	// A share is a flat word range of its fiber's row-major tile: it
	// lands in out one row piece at a time.
	out := matrix.New(pl.m, pl.n)
	for id, share := range shares {
		rows, cols, words := pl.share(id)
		dn := cols.Len()
		for rest := share; len(rest) > 0; {
			i, j := words.Lo/dn, words.Lo%dn
			c := copy(out.Data[(rows.Lo+i)*out.Stride+cols.Lo+j:][:dn-j], rest)
			rest, words.Lo = rest[c:], words.Lo+c
		}
		machine.Release(share)
	}
	return out, nil
}

// share returns what rank id ends with: words of the row-major
// rows×cols C tile of its fiber, cut evenly over the fiber's Pk members
// by the reduction.
func (pl *plan) share(id int) (rows, cols, words layout.Range) {
	im, in, ik := pl.g.Coords(id)
	rows = layout.Block(pl.m, pl.g.Pm, im)
	cols = layout.Block(pl.n, pl.g.Pn, in)
	return rows, cols, layout.Block(rows.Len()*cols.Len(), pl.g.Pk, ik)
}

// gatherShares is the multi-process epilogue: every rank other than
// rank 0 hands its (pool-loaned) share to rank 0, which collects them
// into shares for assembly. The tags are offset by the sender id, so
// the receives match deterministically regardless of arrival order. An
// empty share is neither sent nor awaited.
func (pl *plan) gatherShares(r *machine.Rank, share []float64, shares [][]float64) {
	if r.ID() != 0 {
		if len(share) > 0 {
			r.SendOwned(0, tagOut+r.ID(), share)
		}
		return
	}
	shares[0] = share
	for id := 1; id < pl.g.Ranks(); id++ {
		if _, _, words := pl.share(id); words.Len() > 0 {
			shares[id] = r.Recv(id, tagOut+id)
		}
	}
}

// rankProgram is one rank's part of Algorithm 1. It returns the rank's
// share of its fiber's summed C tile (plan.share), loaned from the
// machine pool; Execute releases it after assembly.
func (pl *plan) rankProgram(r *machine.Rank, scratch *algo.Arena, a, b *matrix.Dense) ([]float64, error) {
	im, in, ik := pl.g.Coords(r.ID())
	rows := layout.Block(pl.m, pl.g.Pm, im) // my M range
	cols := layout.Block(pl.n, pl.g.Pn, in) // my N range
	slab := layout.Block(pl.k, pl.g.Pk, ik) // my K range
	dm, dn := rows.Len(), cols.Len()

	rowGroup := comm.NewGroup(r, pl.g.RowGroup(in, ik)) // shares the B panel... see below
	colGroup := comm.NewGroup(r, pl.g.ColGroup(im, ik)) // shares the A panel
	fiber := comm.NewGroup(r, pl.g.FiberGroup(im, in))  // C reduction group

	// Blocked initial layout (§7.6): the A panel rows×slab is divided by
	// k among the pn members of my column group (the ranks that need it);
	// the B panel slab×cols among the pm members of my row group.
	// inputs returns the pieces grid position (im, in, l) starts from, as
	// views of the caller's matrices: a word its rank owns is read where
	// it already is, never copied in.
	inputs := func(l int) (aPiece, bPiece *matrix.Dense) {
		sl := layout.Block(pl.k, pl.g.Pk, l)
		aPart := layout.Block(sl.Len(), pl.g.Pn, in)
		bPart := layout.Block(sl.Len(), pl.g.Pm, im)
		return a.View(rows.Lo, sl.Lo+aPart.Lo, dm, aPart.Len()),
			b.View(sl.Lo+bPart.Lo, cols.Lo, bPart.Len(), dn)
	}
	aParts := layout.Split(slab.Len(), pl.g.Pn)
	bParts := layout.Split(slab.Len(), pl.g.Pm)
	myA, myB := inputs(ik)
	if pl.layer0 && ik != 0 {
		root := pl.g.Rank(im, in, 0)
		myA = matrix.FromSlice(myA.Rows, myA.Cols, r.Recv(root, tagInA))
		myB = matrix.FromSlice(myB.Rows, myB.Cols, r.Recv(root, tagInB))
		defer machine.Release(myA.Data)
		defer machine.Release(myB.Data)
	} else {
		for l := 1; pl.layer0 && l < pl.g.Pk; l++ {
			aPiece, bPiece := inputs(l)
			dst := pl.g.Rank(im, in, l)
			r.SendOwned(dst, tagInA, aPiece.Pack(machine.Loan(aPiece.Rows*aPiece.Cols)))
			r.SendOwned(dst, tagInB, bPiece.Pack(machine.Loan(bPiece.Rows*bPiece.Cols)))
		}
	}

	cTile := scratch.Matrix(r.ID(), dm, dn)
	kern := scratch.Kernel(r.ID())

	// Walk the slab over the precomputed round segments — the union
	// breakpoints of the A and B ownership partitions, sub-chunked to
	// the latency-minimizing step — so each round's panel lies inside one
	// owner's piece. panelA/panelB return a round's operand: at its owner
	// the view of my piece holding it — multiplied where it already is,
	// the kernel's packA/packB read any stride — else the received chunk.
	panelA := func(seg layout.Range, chunk []float64) *matrix.Dense {
		if part := aParts[in]; part.Lo <= seg.Lo && seg.Lo < part.Hi {
			return myA.View(0, seg.Lo-part.Lo, dm, seg.Len())
		}
		return matrix.FromSlice(dm, seg.Len(), chunk)
	}
	panelB := func(seg layout.Range, chunk []float64) *matrix.Dense {
		if part := bParts[im]; part.Lo <= seg.Lo && seg.Lo < part.Hi {
			return myB.View(seg.Lo-part.Lo, 0, seg.Len(), dn)
		}
		return matrix.FromSlice(seg.Len(), dn, chunk)
	}

	// startA/startB post one round's panel broadcast. Packing exists to
	// send: the owner copies its panel into a loaned buffer only when the
	// group has another member, and the group relays it down the binary
	// tree. mulRound folds a settled round into the C tile and hands the
	// chunk buffers — nil where nothing was packed or received — back to
	// the pool with plain calls (a defer here would be a heap allocation
	// per round). PipelineRounds sequences them — serially, or
	// double-buffered under Overlap with round i+1's pair in flight while
	// round i's is multiplied.
	startA := func(seg layout.Range) *comm.Pending {
		owner := ownerOf(aParts, seg.Lo)
		var chunk []float64
		if in == owner && colGroup.Size() > 1 {
			chunk = panelA(seg, nil).Pack(machine.Loan(dm * seg.Len()))
		}
		return colGroup.IBcast(owner, chunk, tagA+seg.Lo)
	}
	startB := func(seg layout.Range) *comm.Pending {
		owner := ownerOf(bParts, seg.Lo)
		var chunk []float64
		if im == owner && rowGroup.Size() > 1 {
			chunk = panelB(seg, nil).Pack(machine.Loan(seg.Len() * dn))
		}
		return rowGroup.IBcast(owner, chunk, tagB+seg.Lo)
	}
	mulRound := func(seg layout.Range, aChunk, bChunk []float64) {
		kern.Mul(cTile, panelA(seg, aChunk), panelB(seg, bChunk))
		r.Compute(matrix.MulFlops(dm, dn, seg.Len()))
		machine.Release(aChunk)
		machine.Release(bChunk)
	}
	if err := comm.PipelineRounds(r, pl.segs[ik], pl.overlap, startA, startB, mulRound); err != nil {
		return nil, err
	}

	// Sum the partial C tiles along the fiber; every member keeps its
	// share of the total.
	return fiber.Reduce(0, cTile.Data, tagC), nil
}

// StepSize is the latency-minimizing number of outer products per round
// generalized to rectangular dm×dn tiles: the free memory after the
// resident C tile is spent on one dm×h A chunk and one h×dn B chunk.
func StepSize(s, dm, dn int) int {
	h := (s - dm*dn) / (dm + dn)
	if h < 1 {
		h = 1
	}
	return h
}

// segments partitions [0, extent) at every boundary of either ownership
// partition and then sub-chunks each piece to at most step.
func segments(extent int, aParts, bParts []layout.Range, step int) []layout.Range {
	cuts := map[int]bool{0: true, extent: true}
	for _, r := range aParts {
		cuts[r.Lo] = true
	}
	for _, r := range bParts {
		cuts[r.Lo] = true
	}
	points := make([]int, 0, len(cuts))
	for c := range cuts {
		points = append(points, c)
	}
	sort.Ints(points)
	var out []layout.Range
	for i := 0; i+1 < len(points); i++ {
		for lo := points[i]; lo < points[i+1]; lo += step {
			hi := lo + step
			if hi > points[i+1] {
				hi = points[i+1]
			}
			out = append(out, layout.Range{Lo: lo, Hi: hi})
		}
	}
	return out
}

// ownerOf returns the index of the partition member containing position
// x. The members are sorted, disjoint and contiguous, so the owner is
// found by binary search — this runs twice per round on every rank.
func ownerOf(parts []layout.Range, x int) int {
	i := sort.Search(len(parts), func(i int) bool { return parts[i].Hi > x })
	if i == len(parts) || x < parts[i].Lo {
		panic(fmt.Sprintf("core: position %d outside partition", x))
	}
	return i
}

// count is the plan's model: the words Algorithm 1's ranks receive, added
// up rank by rank over the layout.Block cuts rankProgram walks — the
// share of its A panel (rows × slab) and B panel (slab × cols) a rank does
// not own, its block of the C tile from each of the fiber's other members,
// and under layer0 its own pieces too if it is off layer 0 — so average
// and maximum equal what an execution measures. MaxMsgs is per round one
// message for each panel broadcast with anyone to talk to, the reduction's
// Pk−1 blocks out and Pk−1 in, and the two scattered pieces; MaxFlops is
// the largest local domain's.
func (pl *plan) count(name string, d algo.Decomposition) algo.Model {
	g := pl.g
	var total, maxRecv int
	for ik := 0; ik < g.Pk; ik++ {
		slab := layout.Block(pl.k, g.Pk, ik).Len()
		for in := 0; in < g.Pn; in++ {
			dn := layout.Block(pl.n, g.Pn, in).Len()
			aMine := layout.Block(slab, g.Pn, in).Len()
			for im := 0; im < g.Pm; im++ {
				dm := layout.Block(pl.m, g.Pm, im).Len()
				bMine := layout.Block(slab, g.Pm, im).Len()
				recv := dm*(slab-aMine) + (slab-bMine)*dn +
					(g.Pk-1)*layout.Block(dm*dn, g.Pk, ik).Len()
				if pl.layer0 && ik != 0 {
					recv += dm*aMine + bMine*dn
				}
				total += recv
				maxRecv = max(maxRecv, recv)
			}
		}
	}
	bcasts := min(g.Pn-1, 1) + min(g.Pm-1, 1)
	msgs := bcasts*d.Rounds + 2*(g.Pk-1)
	if pl.layer0 && g.Pk > 1 {
		msgs += 2
	}
	return algo.Model{
		Name:     name,
		Grid:     g.String(),
		Used:     g.Ranks(),
		AvgRecv:  float64(total) / float64(pl.p),
		MaxRecv:  float64(maxRecv),
		MaxMsgs:  float64(msgs),
		MaxFlops: 2 * float64(d.DomainM) * float64(d.DomainN) * float64(d.DomainK),
	}
}
