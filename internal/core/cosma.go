package core

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

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
	// tagInA/tagInB carry the layer-0 input scatter (plan.layer0).
	tagInA = 5 << 20
	tagInB = 6 << 20
)

// plan is Algorithm 1's compiled schedule for one problem shape on one
// processor grid: the round table of every k slab (newSlab), cut at the
// latency-minimizing step, and the count of what its ranks receive.
// COSMA, SUMMA, 2.5D and CARMA differ only in how they choose the grid
// (and CARMA in its C blocks). It is immutable after NewPlan returns.
type plan struct {
	m, n, k, p int
	g          grid.Grid
	slabs      []slab // by ik
	// overlap keeps the next round in flight while the round loop
	// multiplies this one (comm.Stream's ahead is a whole round).
	overlap bool
	stagger bool // rotate which rank holds which piece (plan.parts)
	// bands is how many row blocks a round's A panel is broadcast in
	// (plan.bandsFor): 1 sends it whole.
	bands int
	// layer0 is 2.5D's initial layout: the inputs live on the ik = 0
	// layer, whose ranks mail every other layer its pieces before the
	// round loop. Otherwise every rank starts with its own pieces (§7.6).
	layer0 bool
}

// Plan is COSMA: Algorithm 1 on whichever of grid.Candidates — the
// grid §7.1 fits, using at least ⌊(1−DefaultDelta)·p⌋ ranks, and the
// baselines' grids that pass the same tests — its own count says the
// busiest rank receives least on; an exact tie keeps the earlier
// candidate. Words do not depend on cfg, so every transport runs the
// same grid. All grid fitting and round-schedule construction happens
// here, once per shape.
func Plan(cfg algo.Config, m, n, k, p, s int) (*algo.Plan, error) {
	if m < 1 || n < 1 || k < 1 {
		return nil, fmt.Errorf("core: invalid dimensions %d×%d×%d", m, n, k)
	}
	if p < 1 {
		return nil, fmt.Errorf("core: p = %d must be ≥ 1", p)
	}
	var best *schedule
	bestRecv := 0.0
	for _, g := range grid.Candidates(m, n, k, p, s, DefaultDelta) {
		sc, err := newSchedule(cfg, g, 1, 1, m, n, k, p, s, false)
		if err != nil {
			return nil, err
		}
		if recv := sc.count("").MaxRecv; best == nil || recv < bestRecv {
			best, bestRecv = sc, recv
		}
	}
	return best.compile("COSMA"), nil
}

// NewPlan compiles Algorithm 1's broadcast–multiply–reduce schedule for
// an m×k by k×n multiplication on the grid g of a p-rank machine with
// s words per rank, reported under the algorithm name. The grid is the
// caller's policy — COSMA fits it (§7.1), SUMMA, 2.5D and CARMA fix it
// upfront; the model is not: the plan counts its own schedule.
// cfg.Overlap asks for the pipelined round loop (§7.3), which the plan
// grants only where s holds the C tile and two panel pairs of its
// longest round; a synchronous plan broadcasts its A panels in the row
// blocks cfg.Network pays for (plan.bandsFor); layer0 starts the inputs
// on the ik = 0 layer (2.5D). A grid longer than a dimension it cuts is
// refused with algo.ErrUnsupportedShape.
func NewPlan(name string, cfg algo.Config, g grid.Grid, m, n, k, p, s int, layer0 bool) (*algo.Plan, error) {
	sc, err := newSchedule(cfg, g, 1, 1, m, n, k, p, s, layer0)
	if err != nil {
		return nil, err
	}
	return sc.compile(name), nil
}

// NewBlockedPlan compiles NewPlan's schedule one C block at a time: the
// product is cut into bm×bn blocks (layout.Block cuts of m and n), and
// the ranks multiply them in turn on the grid g, each block with all of
// k — the sequential steps of a schedule whose grid's C tile does not
// fit s (CARMA's DFS). The count sums every block's words and messages
// rank by rank, so the model still equals the measurement.
func NewBlockedPlan(name string, cfg algo.Config, g grid.Grid, bm, bn, m, n, k, p, s int) (*algo.Plan, error) {
	sc, err := newSchedule(cfg, g, bm, bn, m, n, k, p, s, false)
	if err != nil {
		return nil, err
	}
	return sc.compile(name), nil
}

// schedule is a compiled plan: the m×n product cut into C blocks, which
// every rank multiplies in order on one grid, each by the plan of its
// shape. NewPlan's schedule is one block.
type schedule struct {
	m, n, k, p int
	g          grid.Grid
	blocks     []block
}

// block is one C block: its rows and columns of the product and the
// plan that multiplies them, shared by every block of its shape.
type block struct {
	rows, cols layout.Range
	*plan
}

// newSchedule cuts the product into bm×bn blocks and compiles one plan
// per distinct block shape — at most four, since layout.Block's cuts
// take two lengths.
func newSchedule(cfg algo.Config, g grid.Grid, bm, bn, m, n, k, p, s int, layer0 bool) (*schedule, error) {
	if bm < 1 || bn < 1 || bm > m || bn > n {
		return nil, fmt.Errorf("core: %d×%d C blocks do not cut %d×%d", bm, bn, m, n)
	}
	sc := &schedule{m: m, n: n, k: k, p: p, g: g}
	plans := map[[2]int]*plan{}
	for i := 0; i < bm; i++ {
		rows := layout.Block(m, bm, i)
		for j := 0; j < bn; j++ {
			cols := layout.Block(n, bn, j)
			shape := [2]int{rows.Len(), cols.Len()}
			pl := plans[shape]
			if pl == nil {
				var err error
				if pl, err = newPlan(cfg, g, shape[0], shape[1], k, p, s, layer0); err != nil {
					return nil, err
				}
				plans[shape] = pl
			}
			sc.blocks = append(sc.blocks, block{rows, cols, pl})
		}
	}
	return sc, nil
}

// compile publishes the schedule: its model, geometry and Execute. It
// pipelines where every block's plan does.
func (sc *schedule) compile(name string) *algo.Plan {
	overlap := true
	for _, blk := range sc.blocks {
		overlap = overlap && blk.overlap
	}
	return &algo.Plan{
		Model: sc.count(name),
		M:     sc.m, N: sc.n, K: sc.k, P: sc.p,
		Geometry: sc.geometry(),
		Overlap:  overlap,
		Execute:  sc.Execute,
	}
}

// newPlan compiles NewPlan's schedule.
func newPlan(cfg algo.Config, g grid.Grid, m, n, k, p, s int, layer0 bool) (*plan, error) {
	if m < 1 || n < 1 || k < 1 || g.Pm < 1 || g.Pn < 1 || g.Pk < 1 || g.Ranks() > p {
		return nil, fmt.Errorf("core: grid %v does not fit %d×%d×%d on p = %d", g, m, n, k, p)
	}
	if g.Pm > m || g.Pn > n || g.Pk > k {
		return nil, fmt.Errorf("core: grid %v exceeds %d×%d×%d: %w", g, m, n, k, algo.ErrUnsupportedShape)
	}
	dmMax, dnMax, _ := g.LocalDims(m, n, k)
	step := StepSize(s, dmMax, dnMax)
	slabs := make([]slab, g.Pk)
	hMax, even := 0, true
	for ik := range slabs {
		slabs[ik] = newSlab(layout.Block(k, g.Pk, ik), g, step)
		for _, rd := range slabs[ik].rounds {
			hMax = max(hMax, rd.seg.Len())
		}
		even = even && slabs[ik].k.Len()%g.Pn == 0
	}
	// Overlap buys its second panel pair out of s (§7.3): the rounds,
	// and with them the product bits, are the same either way.
	overlap := cfg.Overlap && dmMax*dnMax+2*hMax*(dmMax+dnMax) <= s
	// Stagger only a pipelined loop (a synchronous one gets slower) whose
	// A and B parts line up (Pm = Pn) and are equal, so no word moves.
	return &plan{
		m: m, n: n, k: k, p: p,
		g: g, slabs: slabs,
		overlap: overlap, layer0: layer0,
		stagger: overlap && g.Pm == g.Pn && g.Pn > 1 && even,
		bands:   bandsFor(cfg.Network, overlap, g, m, dmMax, hMax),
	}, nil
}

// bandsFor is how many row blocks c a round's dm×h A panel is broadcast
// in. A synchronous round has no second panel pair to hide its transfer
// behind, so it overlaps inside its one pair instead: each block is its
// own broadcast down the column tree, an interior member relays block j
// while block j+1 is still arriving, and a receiver multiplies C's row
// band j as soon as block j lands. Every block costs each tree hop one
// more α and saves the hops below the first a share of β·dm·h, so
//
//	c = clamp(⌊√((d−1)·β·dm·h / (4α))⌋, 1, ⌊m/Pm⌋)
//
// with dm the largest tile's rows, h the longest round's outer products
// and d = ⌊log₂ Pn⌋ the depth of the A tree; ⌊m/Pm⌋ keeps every block
// non-empty. A pipelined plan (whose next pair already hides the
// transfer), a tree of depth < 2 and a machine without a network — a
// counting one pays nothing for time — send the panel whole.
func bandsFor(net *machine.NetworkParams, overlap bool, g grid.Grid, m, dm, h int) int {
	d := bits.Len(uint(g.Pn)) - 1
	if net == nil || overlap || d < 2 {
		return 1
	}
	c := math.Sqrt(float64(d-1) * net.Beta * float64(dm*h) / (4 * net.Alpha))
	if !(c >= 1) { // NaN too: a network with α = β = 0
		return 1
	}
	return int(math.Min(c, float64(m/g.Pm)))
}

// parts returns the A and B part of its k slab that rank (im, in) holds
// in the initial layout (§7.6), which the paper leaves free: A part in
// and B part im, or, staggered, (in+im) mod Pn and (im+in+1) mod Pm. The
// two then differ on a square grid, so no rank owns both panels of a
// round and idles its ingress port for a whole part while it multiplies.
func (pl *plan) parts(im, in int) (a, b int) {
	if !pl.stagger {
		return in, im
	}
	return (in + im) % pl.g.Pn, (im + in + 1) % pl.g.Pm
}

// geometry is the §6.3 schedule geometry the schedule publishes: the
// largest block's domain, the longest round and most bands of any
// block, and the most rounds any rank multiplies over all blocks.
func (sc *schedule) geometry() algo.Decomposition {
	d := algo.Decomposition{
		GridPm: sc.g.Pm, GridPn: sc.g.Pn, GridPk: sc.g.Pk,
		RanksUsed: sc.g.Ranks(),
		Blocks:    len(sc.blocks),
	}
	rounds := make([]int, sc.g.Pk) // by k slab, over every block
	for _, blk := range sc.blocks {
		dm, dn, dk := sc.g.LocalDims(blk.m, blk.n, blk.k)
		d.DomainM, d.DomainN, d.DomainK = max(d.DomainM, dm), max(d.DomainN, dn), max(d.DomainK, dk)
		d.Bands = max(d.Bands, blk.bands)
		for ik, sl := range blk.slabs {
			rounds[ik] += len(sl.rounds)
			for _, rd := range sl.rounds {
				d.StepSize = max(d.StepSize, rd.seg.Len())
			}
		}
	}
	d.Rounds = slices.Max(rounds)
	return d
}

// Execute is the algo.Plan's Execute. Every rank multiplies the blocks
// in order inside one run, reading its pieces of a and b in place, as
// views, and summing each block in one C tile loaned for the run: the
// largest it holds in any block, whose stale contents each block's first
// round overwrites. It hands each block's share of C (loaned from the
// machine pool by the fiber reduction) to the plan's gather, which lands
// it in the product.
func (sc *schedule) Execute(ctx context.Context, mach *machine.Machine, scratch *algo.Arena, a, b *matrix.Dense) (*matrix.Dense, error) {
	ranks := sc.g.Ranks()
	views := make([]*matrix.Dense, 2*len(sc.blocks)) // the blocks' rows of a, columns of b
	for i, blk := range sc.blocks {
		views[2*i] = a.View(blk.rows.Lo, 0, blk.m, sc.k)
		views[2*i+1] = b.View(0, blk.cols.Lo, sc.k, blk.n)
	}
	out := algo.NewGather(mach, sc.m, sc.n, len(sc.blocks), ranks, sc.place)
	err := mach.RunCtx(ctx, func(r *machine.Rank) error {
		id := r.ID()
		if id >= ranks {
			return nil // idle rank left out by the grid fitting
		}
		im, in, _ := sc.g.Coords(id)
		dm, dn := 0, 0
		for _, blk := range sc.blocks {
			dm = max(dm, layout.Block(blk.m, sc.g.Pm, im).Len())
			dn = max(dn, layout.Block(blk.n, sc.g.Pn, in).Len())
		}
		tile := machine.Loan(dm * dn)
		defer machine.Release(tile)
		kern := scratch.Kernel(id)
		for i, blk := range sc.blocks {
			share, err := blk.rankProgram(r, kern, tile, views[2*i], views[2*i+1])
			if err != nil {
				return err
			}
			out.Put(r, i, share)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out.Assemble(), nil
}

// place is where rank id's share of block bi lands in the product:
// words of the row-major C tile of its fiber, cut evenly over the
// fiber's Pk members by the reduction.
func (sc *schedule) place(bi, id int) algo.Piece {
	blk := sc.blocks[bi]
	im, in, ik := sc.g.Coords(id)
	rows, cols := layout.Block(blk.m, sc.g.Pm, im), layout.Block(blk.n, sc.g.Pn, in)
	return algo.Piece{
		Top: blk.rows.Lo + rows.Lo, Left: blk.cols.Lo + cols.Lo, Width: cols.Len(),
		Words: layout.Block(rows.Len()*cols.Len(), sc.g.Pk, ik),
	}
}

// rankProgram is one rank's part of Algorithm 1, summing in the first
// words of tile, which its first round stores into without reading. It
// returns the rank's share of its fiber's summed C tile
// (schedule.place), loaned from the machine pool; the gather releases it
// once it lands.
func (pl *plan) rankProgram(r *machine.Rank, kern *matrix.Kernel, tile []float64, a, b *matrix.Dense) ([]float64, error) {
	im, in, ik := pl.g.Coords(r.ID())
	rows := layout.Block(pl.m, pl.g.Pm, im) // my M range
	cols := layout.Block(pl.n, pl.g.Pn, in) // my N range
	sl := pl.slabs[ik]                      // my K range, its parts and rounds
	dm, dn := rows.Len(), cols.Len()

	// Blocked initial layout (§7.6): the A panel rows×slab is divided by
	// k among my column group (the ranks that need it), the B panel
	// slab×cols among my row group, and a member's group position is the
	// part it holds (plan.parts), so a round's root owns its segment.
	colRanks, rowRanks := make([]int, pl.g.Pn), make([]int, pl.g.Pm)
	for j := range colRanks {
		part, _ := pl.parts(im, j)
		colRanks[part] = pl.g.Rank(im, j, ik)
	}
	for j := range rowRanks {
		_, part := pl.parts(j, in)
		rowRanks[part] = pl.g.Rank(j, in, ik)
	}
	colGroup := comm.NewGroup(r, colRanks)             // shares the A panel
	rowGroup := comm.NewGroup(r, rowRanks)             // shares the B panel
	fiber := comm.NewGroup(r, pl.g.FiberGroup(im, in)) // C reduction group
	pa, pb := colGroup.Index(), rowGroup.Index()

	// inputs returns the pieces grid position (im, in, l) starts from, as
	// views of the caller's matrices: a word its rank owns is read where
	// it already is, never copied in.
	inputs := func(l int) (aPiece, bPiece *matrix.Dense) {
		k, aPart, bPart := pl.slabs[l].k, pl.slabs[l].aParts[pa], pl.slabs[l].bParts[pb]
		return a.View(rows.Lo, k.Lo+aPart.Lo, dm, aPart.Len()),
			b.View(k.Lo+bPart.Lo, cols.Lo, bPart.Len(), dn)
	}
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

	cTile := matrix.Dense{Rows: dm, Cols: dn, Stride: dn, Data: tile[:dm*dn]} // on the stack

	// Walk the slab's round table (newSlab), whose rounds each lie inside
	// one owner's piece. A round is pl.bands+1 broadcasts, its units: the
	// A panel in pl.bands row blocks (plan.bandsFor), block j the rows
	// band(j), down the column tree, then the B panel along the row. The
	// owner packs each unit once — A's block with PackA, B with PackB,
	// from a view of its piece (the packs read any stride) into a loaned
	// buffer — and every member multiplies that one buffer where it lies:
	// comm.PostShare delivers it by reference, counting the panel's
	// words, not the packing's padding, under a hold each member drops
	// after the round. A group of one packs for itself the same way, so
	// MulPacked has one operand form. comm.Stream posts the units in
	// order into its ring, a whole round of them past the round being
	// multiplied where the plan overlaps, none where it does not. The
	// panel views stay on the stack: a warm round allocates nothing.
	band := func(j int) layout.Range { return layout.Block(dm, pl.bands, j) }
	post := func(i, j int, p *comm.Pending) {
		rd := sl.rounds[i]
		h := rd.seg.Len()
		var buf []float64
		if j == pl.bands {
			if pb == rd.b {
				panel := myB.View(rd.seg.Lo-sl.bParts[pb].Lo, 0, h, dn)
				buf = kern.PackB(machine.Loan(kern.PackedBLen(h, dn)), panel).Data
			}
			rowGroup.PostShare(p, rd.b, buf, h*dn, tagB+rd.seg.Lo)
			return
		}
		rs := band(j)
		if pa == rd.a {
			panel := myA.View(rs.Lo, rd.seg.Lo-sl.aParts[pa].Lo, rs.Len(), h)
			buf = kern.PackA(machine.Loan(kern.PackedALen(rs.Len(), h)), panel).Data
		}
		colGroup.PostShare(p, rd.a, buf, rs.Len()*h, tagA+rd.seg.Lo)
	}
	cBands := make([]*matrix.Dense, pl.bands) // C's rows band(j), for MulPacked
	for j := range cBands {
		rs := band(j)
		cBands[j] = cTile.View(rs.Lo, 0, rs.Len(), dn)
	}

	// The round being multiplied: its table row, its A blocks, its packed
	// B, the block the multiply is in and that block's packed rows,
	// whether its first flops are charged, and whether it is the slab's
	// first, which stores into the C tile (BLAS's β = 0) instead of adding.
	var (
		cur     round
		blocks  []comm.Pending
		bp      matrix.PackedB
		inBlock int
		aBlock  matrix.PackedA
		opened  bool
		first   bool
	)
	// mulRows multiplies rows [plo, phi) of the C tile by the round and
	// charges rows [lo, hi) of it, band by band: a block of A is settled
	// when the charge reaches it, so each band's compute overlaps the
	// next block's transfer (§7.3). The rows multiplied lie in the bands
	// the rows charged do (finish multiplies ahead only inside the band
	// it ends in), so a block is settled before it is read. A round's
	// blocks share one (src, tag) queue whose take happens at Wait, so
	// blocks up to j settle in order — members relay as they settle. The
	// round's first band closes it on the round clock — one Compute per
	// round, the fault plan's round count — the rest only charge their
	// flops.
	mulRows := func(lo, hi, plo, phi int) {
		for j := 0; j < pl.bands; j++ {
			rs := band(j)
			due := rs.Intersect(layout.Range{Lo: lo, Hi: hi})
			if due.Len() == 0 {
				continue
			}
			if j != inBlock {
				for k := range blocks[:j] {
					blocks[k].Wait()
				}
				aBlock = matrix.PackedA{Data: blocks[j].Wait(), Rows: rs.Len(), Cols: cur.seg.Len()}
				inBlock = j
			}
			if mul := rs.Intersect(layout.Range{Lo: plo, Hi: phi}); mul.Len() > 0 {
				kern.MulPacked(cBands[j], aBlock, bp, mul.Lo-rs.Lo, mul.Hi-rs.Lo, first)
			}
			if flops := matrix.MulFlops(due.Len(), dn, cur.seg.Len()); opened {
				r.Charge(flops)
			} else {
				r.Compute(flops)
				opened = true
			}
		}
	}

	// The last round is multiplied inside the fiber reduction, one row
	// band per C block right before the block is sent (§7.3): the sweep
	// goes around the tile from the first row of block ik+1 — the first
	// one sent — and done counts the rows behind it. A band never wraps,
	// since block Pk−1 is never empty and ends the tile. A block's rows
	// need not start or end on a micro-panel, so the multiply runs ahead
	// of the charge: it ends each band on the A band's next panel
	// boundary (PanelRows), or at the A band's end, or where the lap
	// closes at row start, and swept counts the rows it has multiplied.
	// Every band but the lap's first then starts on a panel, and
	// MulPacked stages a partial panel only where the lap opens and
	// closes, not twice per block; the clock still charges each block's
	// rows before its send.
	start := layout.Block(dm*dn, pl.g.Pk, (ik+1)%pl.g.Pk).Lo / dn % dm
	done, swept, mr := 0, 0, kern.PanelRows()
	finish := func(lo, hi int) {
		first, stop := (lo/dn-start+dm)%dm, ((hi-1)/dn-start+dm)%dm+1
		if stop <= first {
			stop = dm // the block ends in the sweep's first row: all rows are due
		}
		if stop <= done {
			return
		}
		r0 := (start + done) % dm
		end := r0 + stop - done
		rs := band(0)
		for j := 1; rs.Hi < end; j++ { // the A band the block ends in
			rs = band(j)
		}
		phi := min(rs.Lo+(end-rs.Lo+mr-1)/mr*mr, rs.Hi)
		if r0 < start {
			phi = min(phi, start)
		}
		plo := r0 + swept - done
		mulRows(r0, end, plo, phi)
		done, swept = stop, swept+max(phi-plo, 0)
	}

	// run opens round i — settles A block 0, then B — and folds it into
	// the C tile; the last round it folds while it sums the partial C
	// tiles along the fiber, every member keeping its share of the total.
	// It then drops its hold on every unit of the round, with plain calls
	// (a defer would be a heap allocation per round).
	var share []float64
	run := func(i int, units []comm.Pending) {
		cur, blocks, inBlock, opened, first = sl.rounds[i], units[:pl.bands], -1, false, i == 0
		blocks[0].Wait()
		bp = matrix.PackedB{Data: units[pl.bands].Wait(), Rows: cur.seg.Len(), Cols: dn}
		if i < len(sl.rounds)-1 {
			mulRows(0, dm, 0, dm)
		} else {
			share = fiber.ReduceScatter(0, cTile.Data, tagC, finish)
		}
		for j := range units {
			units[j].Drop()
		}
	}
	per, ahead := pl.bands+1, 0
	if pl.overlap {
		ahead = per
	}
	if err := comm.Stream(r, len(sl.rounds), per, ahead, post, run); err != nil {
		return nil, err
	}
	return share, nil
}

// StepSize is the latency-minimizing number of outer products per round
// generalized to rectangular dm×dn tiles: the free memory after the
// resident C tile is spent on one dm×h A chunk and one h×dn B chunk —
// the one pair a round has in flight when the plan does not overlap.
func StepSize(s, dm, dn int) int {
	h := (s - dm*dn) / (dm + dn)
	if h < 1 {
		h = 1
	}
	return h
}

// slab is one k slab's layout (§7.6) and its rounds (Algorithm 1 line
// 6), decided once per plan: its k range, the Pn-way split of its A
// panel by column-group position, the Pm-way split of its B panel by
// row-group position, and the rounds walking it. A member's group
// position is the part it holds (plan.parts).
type slab struct {
	k              layout.Range
	aParts, bParts []layout.Range
	rounds         []round
}

// round is one round of a slab: its outer products, relative to the
// slab, and the positions a and b that hold them, which root its A and
// B broadcasts.
type round struct {
	seg  layout.Range
	a, b int
}

// newSlab lays out the slab k on g and walks it in rounds of at most
// step outer products, each inside one A part and one B part: a round
// ends at the next A cut, the next B cut or lo+step, whichever comes
// first. Empty parts hold no round.
func newSlab(k layout.Range, g grid.Grid, step int) slab {
	sl := slab{k: k, aParts: layout.Split(k.Len(), g.Pn), bParts: layout.Split(k.Len(), g.Pm)}
	a, b := 0, 0
	for lo := 0; lo < k.Len(); {
		for sl.aParts[a].Hi <= lo {
			a++
		}
		for sl.bParts[b].Hi <= lo {
			b++
		}
		hi := min(lo+step, sl.aParts[a].Hi, sl.bParts[b].Hi)
		sl.rounds = append(sl.rounds, round{layout.Range{Lo: lo, Hi: hi}, a, b})
		lo = hi
	}
	return sl
}

// count is the schedule's model, read off what rankProgram runs: each
// block's plan tallies every rank's words, messages and flops
// (plan.tally), and the sums over the blocks give the average and the
// busiest rank's. Average and maximum words and MaxMsgs (sent + received
// on the busiest rank) therefore equal what an execution measures.
func (sc *schedule) count(name string) algo.Model {
	ranks := sc.g.Ranks()
	recv, msgs, flops := make([]int, ranks), make([]int, ranks), make([]int, ranks)
	for _, blk := range sc.blocks {
		blk.tally(recv, msgs, flops)
	}
	total := 0
	for _, w := range recv {
		total += w
	}
	return algo.Model{
		Name:     name,
		Grid:     sc.g.String(),
		Used:     ranks,
		AvgRecv:  float64(total) / float64(sc.p),
		MaxRecv:  float64(slices.Max(recv)),
		MaxMsgs:  float64(slices.Max(msgs)),
		MaxFlops: 2 * float64(slices.Max(flops)),
	}
}

// tally adds to recv, msgs and flops, indexed by rank, what the plan's
// ranks receive, exchange and multiply. Per k slab it tallies the rounds
// of its table (newSlab) by the parts that root them, and since a
// member's group position is its part (plan.parts), its messages are
// each root's rounds times comm.BcastMsgs at the part it holds. Rank by
// rank it adds the A and B panel words it does not own, its block of
// the C tile from each of the fiber's other members with the
// reduce-scatter's messages (comm.ReduceMsgs) and, under layer0, the
// scatter: layer 0 mails every other layer its two pieces.
func (pl *plan) tally(recv, msgs, flops []int) {
	g := pl.g
	aRounds, aMsgs := make([]int, g.Pn), make([]int, g.Pn) // by root / by member, as parts
	bRounds, bMsgs := make([]int, g.Pm), make([]int, g.Pm) // by root / by member, as parts
	bcastMsgs := func(rounds, msgs []int) {
		for me := range msgs {
			msgs[me] = 0
			for root, r := range rounds {
				msgs[me] += r * comm.BcastMsgs(len(rounds), root, me)
			}
		}
	}
	for ik, sl := range pl.slabs {
		dk := sl.k.Len()
		clear(aRounds)
		clear(bRounds)
		for _, rd := range sl.rounds {
			aRounds[rd.a]++
			bRounds[rd.b]++
		}
		bcastMsgs(aRounds, aMsgs)
		bcastMsgs(bRounds, bMsgs)
		for in := 0; in < g.Pn; in++ {
			dn := layout.Block(pl.n, g.Pn, in).Len()
			for im := 0; im < g.Pm; im++ {
				dm := layout.Block(pl.m, g.Pm, im).Len()
				pa, pb := pl.parts(im, in)
				aMine, bMine := sl.aParts[pa].Len(), sl.bParts[pb].Len()
				id := g.Rank(im, in, ik)
				recv[id] += dm*(dk-aMine) + (dk-bMine)*dn +
					(g.Pk-1)*layout.Block(dm*dn, g.Pk, ik).Len()
				msgs[id] += aMsgs[pa]*pl.bands + bMsgs[pb] + comm.ReduceMsgs(dm*dn, g.Pk, ik)
				flops[id] += dm * dn * dk
				if pl.layer0 && g.Pk > 1 {
					if ik == 0 {
						msgs[id] += 2 * (g.Pk - 1)
					} else {
						recv[id] += dm*aMine + bMine*dn
						msgs[id] += 2
					}
				}
			}
		}
	}
}
