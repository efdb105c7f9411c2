package strassen

import (
	"context"
	"fmt"
	"math"

	"cosma/internal/algo"
	"cosma/internal/layout"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

// CAPS is the Communication-Optimal Parallel Strassen algorithm of
// Ballard, Demmel, Holtz and Schwartz: Strassen's 7-multiply recursion
// walked with BFS steps (split the rank team 7 ways, one subteam per
// subproblem) when memory allows and DFS steps (the whole team runs
// the seven subproblems sequentially) when it does not.
type CAPS struct {
	// Cutoff is the local recursion floor: a single rank's subproblem
	// with any dimension at or below it goes straight to the packed
	// SIMD kernel instead of another Strassen level. Zero means
	// DefaultCutoff.
	Cutoff int
}

// DefaultCutoff is the local Strassen→kernel switchover. Below ~64 the
// kernel's packing amortization beats the 7/8 flop saving of another
// recursion level.
const DefaultCutoff = 64

// Omega is Strassen's arithmetic exponent log₂ 7 ≈ 2.807: CAPS
// performs Θ(n^ω/P) flops and Θ(n^ω/(P·M^(ω/2−1))) communication.
func Omega() float64 { return math.Log2(7) }

func init() {
	algo.Register(algo.Spec{
		Name:       "caps",
		Aliases:    []string{"strassen", "bdhs"},
		Summary:    "Communication-Optimal Parallel Strassen (BFS/DFS, ω = log₂7) of Ballard et al.",
		Order:      5,
		Comparison: false, // the paper's §9 comparison set is classical-only
		New:        func(cfg algo.Config) algo.Planner { return CAPS{} },
	})
}

// Name implements algo.Planner.
func (CAPS) Name() string { return "CAPS-Strassen" }

// capsStep is one level of the distributed recursion.
type capsStep uint8

const (
	stepBFS capsStep = iota // split the team 7 ways, subproblems in parallel
	stepDFS                 // keep the team, subproblems sequentially
)

// maxLevels bounds the distributed recursion depth; it keeps the
// per-node tag space (node·64 with 8-ary node ids) far from overflow
// and is unreachable for any shape that executes in reasonable time.
const maxLevels = 12

// tag layout per recursion node: base node*tagStride, operand
// transfers at 4i..4i+3 for subproblem i, combine transfers at
// combineTagOff+t for term t.
const (
	tagStride     = 64
	combineTagOff = 32
	// capsTagC carries the multi-process result gather (offset by the
	// sender id), far above any node-derived tag.
	capsTagC = 1 << 50
)

// schedule fixes the distributed recursion for a shape: the
// power-of-seven team size and the BFS/DFS step sequence. A BFS step
// multiplies the per-rank footprint by 7/4 (each subteam holds a full
// half-size problem over a seventh of the ranks); a DFS step divides
// it by 4. DFS steps are inserted exactly while the next BFS level
// would overflow S, within the budget of levels the dimensions'
// 2-adic valuations allow.
func schedule(m, n, k, p, s, cutoff int) (steps []capsStep, used int) {
	even := 0
	for even < maxLevels && m%(2<<even) == 0 && n%(2<<even) == 0 && k%(2<<even) == 0 {
		even++
	}
	bfs := 0
	used = 1
	for used*7 <= p && bfs < even {
		used *= 7
		bfs++
	}
	cm, cn, ck := m, n, k
	q := used
	evenLeft := even
	for bfs > 0 {
		mh, nh, kh := cm/2, cn/2, ck/2
		// Footprint of the half-size problem a BFS step hands each
		// subteam rank: operand, result and transfer-temp bands.
		foot := 3 * float64(mh*kh+kh*nh+mh*nh) / float64(q/7)
		if foot <= float64(s) || evenLeft <= bfs || len(steps) >= maxLevels {
			steps = append(steps, stepBFS)
			q /= 7
			bfs--
		} else {
			steps = append(steps, stepDFS)
		}
		cm, cn, ck = mh, nh, kh
		evenLeft--
	}
	return steps, used
}

// Plan implements algo.Planner: the step schedule and team are fixed
// once per shape; executing the plan does no fitting.
func (c CAPS) Plan(m, n, k, p, s int) (algo.Plan, error) {
	if m < 1 || n < 1 || k < 1 {
		return nil, fmt.Errorf("strassen: invalid dimensions %d×%d×%d", m, n, k)
	}
	cutoff := c.Cutoff
	if cutoff <= 0 {
		cutoff = DefaultCutoff
	}
	steps, used := schedule(m, n, k, p, s, cutoff)
	return &capsPlan{
		m: m, n: n, k: k, p: p, used: used,
		cutoff: cutoff, steps: steps,
		model: c.Model(m, n, k, p, s),
	}, nil
}

// capsPlan is the compiled CAPS schedule over a power-of-seven team.
type capsPlan struct {
	m, n, k, p, used int
	cutoff           int
	steps            []capsStep
	model            algo.Model
}

func (pl *capsPlan) Algorithm() string   { return CAPS{}.Name() }
func (pl *capsPlan) Grid() string        { return gridString(pl.used, pl.steps) }
func (pl *capsPlan) Used() int           { return pl.used }
func (pl *capsPlan) Procs() int          { return pl.p }
func (pl *capsPlan) Dims() (m, n, k int) { return pl.m, pl.n, pl.k }
func (pl *capsPlan) Model() algo.Model   { return pl.model }

// Omega implements algo.Exponent: CAPS is the suite's one
// sub-cubic-flops algorithm.
func (pl *capsPlan) Omega() float64 { return Omega() }

// Distributed implements algo.Distributed: on a multi-process machine
// Execute gathers every team rank's C band to rank 0.
func (pl *capsPlan) Distributed() bool { return true }

func gridString(used int, steps []capsStep) string {
	if len(steps) == 0 {
		return "strassen local"
	}
	pat := make([]byte, len(steps))
	for i, st := range steps {
		if st == stepBFS {
			pat[i] = 'B'
		} else {
			pat[i] = 'D'
		}
	}
	return fmt.Sprintf("strassen p=%d %s", used, pat)
}

// capsCtx bundles one rank's execution state through the recursion.
type capsCtx struct {
	r       *machine.Rank
	scratch *algo.Arena
	kern    *matrix.Kernel
	cutoff  int
}

// Execute implements algo.Plan. Inputs and the result are
// row-distributed in balanced bands over the team; on a multi-process
// machine the bands are gathered to rank 0 exactly like SUMMA's tiles.
func (pl *capsPlan) Execute(ctx context.Context, mach *machine.Machine, scratch *algo.Arena, a, b *matrix.Dense) (*matrix.Dense, error) {
	if mach.P() != pl.p {
		return nil, fmt.Errorf("strassen: plan is for p=%d but machine has %d ranks", pl.p, mach.P())
	}
	team := make([]int, pl.used)
	for i := range team {
		team[i] = i
	}
	multi := mach.MultiProcess()
	bands := make([]*matrix.Dense, pl.used)
	err := mach.RunCtx(ctx, func(r *machine.Rank) error {
		// Every rank (idle ones beyond the power-of-seven team too)
		// walks the same recursion tree; transfers no-op for ranks
		// outside the teams involved, keeping tags aligned without
		// global metadata.
		c := &capsCtx{r: r, scratch: scratch, kern: scratch.Kernel(r.ID()), cutoff: pl.cutoff}
		aDist := layout.RowDist{Rows: pl.m, Team: team}
		bDist := layout.RowDist{Rows: pl.k, Team: team}
		var aLoc, bLoc *matrix.Dense
		if r.ID() < pl.used {
			ab := aDist.Band(r.ID())
			bb := bDist.Band(r.ID())
			aLoc = scratch.Clone(r.ID(), a.View(ab.Lo, 0, ab.Len(), pl.k))
			bLoc = scratch.Clone(r.ID(), b.View(bb.Lo, 0, bb.Len(), pl.n))
		}
		cLoc, err := capsSolve(c, team, pl.steps, aLoc, bLoc, pl.m, pl.n, pl.k, 1)
		if err != nil {
			return err
		}
		if !multi {
			if r.ID() < pl.used {
				bands[r.ID()] = cLoc
			}
			return nil
		}
		return pl.gatherBands(r, cLoc, bands)
	})
	if err != nil {
		return nil, err
	}

	out := matrix.New(pl.m, pl.n)
	cDist := layout.RowDist{Rows: pl.m, Team: team}
	for idx, id := range team {
		if bands[id] == nil {
			continue // a remote rank's band, gathered elsewhere
		}
		band := cDist.Band(idx)
		out.View(band.Lo, 0, band.Len(), pl.n).CopyFrom(bands[id])
		if multi && id != 0 {
			// Gathered bands are pool-loaned copies; rank 0's own band
			// is arena-owned and stays with the arena.
			machine.Release(bands[id].Data)
		}
	}
	return out, nil
}

// gatherBands is the multi-process epilogue: every team rank except 0
// sends a copy of its (arena-owned) C band to rank 0, which collects
// all bands for assembly. Tags are offset by the sender id so the
// receives match deterministically.
func (pl *capsPlan) gatherBands(r *machine.Rank, cLoc *matrix.Dense, bands []*matrix.Dense) error {
	if r.ID() >= pl.used {
		return nil
	}
	if r.ID() != 0 {
		// Copying send: the band is arena scratch, reused next run.
		r.Send(0, capsTagC+r.ID(), cLoc.Data)
		return nil
	}
	bands[0] = cLoc
	for id := 1; id < pl.used; id++ {
		rows := layout.Block(pl.m, pl.used, id)
		bands[id] = matrix.FromSlice(rows.Len(), pl.n, r.Recv(id, capsTagC+id))
	}
	return nil
}

// opSpec names one Strassen operand combination: quadrant x, or x±y.
// Quadrants are row-major: 0=11, 1=12, 2=21, 3=22.
type opSpec struct {
	x, y int // y < 0: the operand is the single quadrant x
	sub  bool
}

// The seven products of Strassen's scheme:
//
//	M₁=(A₁₁+A₂₂)(B₁₁+B₂₂)  M₂=(A₂₁+A₂₂)B₁₁  M₃=A₁₁(B₁₂−B₂₂)
//	M₄=A₂₂(B₂₁−B₁₁)        M₅=(A₁₁+A₁₂)B₂₂  M₆=(A₂₁−A₁₁)(B₁₁+B₁₂)
//	M₇=(A₁₂−A₂₂)(B₂₁+B₂₂)
var (
	aOps = [7]opSpec{{0, 3, false}, {2, 3, false}, {0, -1, false}, {3, -1, false}, {0, 1, false}, {2, 0, true}, {1, 3, true}}
	bOps = [7]opSpec{{0, 3, false}, {0, -1, false}, {1, 3, true}, {2, 0, true}, {3, -1, false}, {0, 1, false}, {2, 3, false}}
)

// combineTerm accumulates ±Mᵢ into one C quadrant:
//
//	C₁₁=M₁+M₄−M₅+M₇  C₁₂=M₃+M₅  C₂₁=M₂+M₄  C₂₂=M₁−M₂+M₃+M₆
type combineTerm struct {
	mi, quad int
	sub      bool
}

var combineTerms = [12]combineTerm{
	{0, 0, false}, {3, 0, false}, {4, 0, true}, {6, 0, false},
	{2, 1, false}, {4, 1, false},
	{1, 2, false}, {3, 2, false},
	{0, 3, false}, {1, 3, true}, {2, 3, false}, {5, 3, false},
}

// quadRows/quadCols return a quadrant's index range given the half
// extent along that axis.
func quadRows(q, rh int) layout.Range {
	lo := (q / 2) * rh
	return layout.Range{Lo: lo, Hi: lo + rh}
}

func quadCols(q, ch int) layout.Range {
	lo := (q % 2) * ch
	return layout.Range{Lo: lo, Hi: lo + ch}
}

// capsSolve handles one recursion node: the subproblem mr×nr×kr whose
// operands are row-distributed over team, under the remaining step
// schedule. All ranks call it with identical metadata; only team
// members carry data. It returns the caller's band of the result C
// (nil for non-members). node identifies the tree position for tag
// derivation (8-ary numbering, children node·8+1 … node·8+7).
func capsSolve(c *capsCtx, team []int, steps []capsStep, aLoc, bLoc *matrix.Dense, mr, nr, kr, node int) (*matrix.Dense, error) {
	if err := c.r.Err(); err != nil {
		return nil, err
	}
	id := c.r.ID()
	if len(steps) == 0 {
		// Leaf: a single rank holds the whole subproblem and recurses
		// locally down to the kernel cutoff.
		var cLoc *matrix.Dense
		if team[0] == id {
			cLoc = c.scratch.Matrix(id, mr, nr)
			mark := c.scratch.Mark(id)
			localStrassen(c, cLoc, aLoc, bLoc)
			c.scratch.Rewind(id, mark)
		}
		return cLoc, nil
	}

	q := len(team)
	mh, nh, kh := mr/2, nr/2, kr/2
	aDist := layout.RowDist{Rows: mr, Team: team}
	bDist := layout.RowDist{Rows: kr, Team: team}
	cDist := layout.RowDist{Rows: mr, Team: team}
	tag := node * tagStride

	var cLoc *matrix.Dense
	if idx := indexIn(team, id); idx >= 0 {
		cLoc = c.scratch.Matrix(id, cDist.Band(idx).Len(), nr)
	}
	mark := c.scratch.Mark(id)

	if steps[0] == stepBFS {
		// BFS: one subteam per subproblem, all seven in parallel.
		// Operands are formed first so every redistribution's sends are
		// in flight before any subtree starts computing.
		subs := make([][]int, 7)
		for i := range subs {
			subs[i] = team[i*q/7 : (i+1)*q/7]
		}
		var aOp, bOp, mi [7]*matrix.Dense
		for i := 0; i < 7; i++ {
			aOp[i] = formOperand(c, aDist, aLoc, aOps[i], mh, kh, subs[i], tag+4*i)
			bOp[i] = formOperand(c, bDist, bLoc, bOps[i], kh, nh, subs[i], tag+4*i+2)
		}
		for i := 0; i < 7; i++ {
			var err error
			mi[i], err = capsSolve(c, subs[i], steps[1:], aOp[i], bOp[i], mh, nh, kh, node*8+i+1)
			if err != nil {
				return nil, err
			}
		}
		for t, term := range combineTerms {
			accumulateTerm(c, subs[term.mi], mi[term.mi], term, mh, nh, cDist, cLoc, tag+combineTagOff+t)
		}
		c.scratch.Rewind(id, mark)
		return cLoc, nil
	}

	// DFS: the whole team walks the seven subproblems sequentially,
	// folding each Mᵢ into C before the next starts, so the per-rank
	// footprint stays that of a single quarter-size problem.
	for i := 0; i < 7; i++ {
		aOp := formOperand(c, aDist, aLoc, aOps[i], mh, kh, team, tag+4*i)
		bOp := formOperand(c, bDist, bLoc, bOps[i], kh, nh, team, tag+4*i+2)
		mi, err := capsSolve(c, team, steps[1:], aOp, bOp, mh, nh, kh, node*8+i+1)
		if err != nil {
			return nil, err
		}
		for t, term := range combineTerms {
			if term.mi != i {
				continue
			}
			accumulateTerm(c, team, mi, term, mh, nh, cDist, cLoc, tag+combineTagOff+t)
		}
		c.scratch.Rewind(id, mark)
	}
	return cLoc, nil
}

// formOperand redistributes one operand combination — quadrant X, or
// X±Y — of a row-distributed matrix onto a row distribution over
// dstTeam, returning the caller's destination band (nil for
// non-members). rh×ch is the quadrant extent. Uses tag and tag+1.
func formOperand(c *capsCtx, src layout.RowDist, srcLoc *matrix.Dense, spec opSpec, rh, ch int, dstTeam []int, tag int) *matrix.Dense {
	dst := layout.RowDist{Rows: rh, Team: dstTeam}
	var out *matrix.Dense
	if i := indexIn(dstTeam, c.r.ID()); i >= 0 {
		out = c.scratch.Matrix(c.r.ID(), dst.Band(i).Len(), ch)
	}
	layout.Transfer(c.r, src, srcLoc, quadRows(spec.x, rh), quadCols(spec.x, ch),
		dst, 0, 0, out, false, tag)
	if spec.y < 0 {
		return out
	}
	if !spec.sub {
		// X+Y: accumulate the second quadrant straight into the band.
		layout.Transfer(c.r, src, srcLoc, quadRows(spec.y, rh), quadCols(spec.y, ch),
			dst, 0, 0, out, true, tag+1)
		return out
	}
	// X−Y: land Y in a temp band and subtract locally.
	var tmp *matrix.Dense
	if out != nil {
		tmp = c.scratch.Matrix(c.r.ID(), out.Rows, ch)
	}
	layout.Transfer(c.r, src, srcLoc, quadRows(spec.y, rh), quadCols(spec.y, ch),
		dst, 0, 0, tmp, false, tag+1)
	if out != nil {
		out.Sub(tmp)
	}
	return out
}

// accumulateTerm folds ±Mᵢ (row-distributed over srcTeam, mh×nh) into
// its C quadrant of the team-wide result distribution. Subtracted
// terms transfer a negated copy, since Transfer only accumulates with +.
func accumulateTerm(c *capsCtx, srcTeam []int, miLoc *matrix.Dense, term combineTerm, mh, nh int, cDist layout.RowDist, cLoc *matrix.Dense, tag int) {
	src := miLoc
	if term.sub && src != nil {
		neg := c.scratch.Matrix(c.r.ID(), src.Rows, nh)
		neg.Sub(src)
		src = neg
	}
	layout.Transfer(c.r, layout.RowDist{Rows: mh, Team: srcTeam}, src,
		layout.Range{Lo: 0, Hi: mh}, layout.Range{Lo: 0, Hi: nh},
		cDist, quadRows(term.quad, mh).Lo, quadCols(term.quad, nh).Lo, cLoc, true, tag)
}

// localStrassen computes out += a·b on one rank, recursing through
// Strassen's scheme while every dimension is even and above the
// cutoff, then handing the leaf to the packed SIMD kernel. The
// operand and product temporaries come from the arena and are wound
// back on exit, so the live scratch is O(depth) buffers, not
// O(7^depth).
func localStrassen(c *capsCtx, out, a, b *matrix.Dense) {
	m, n, k := a.Rows, b.Cols, a.Cols
	if m <= c.cutoff || n <= c.cutoff || k <= c.cutoff || m%2 != 0 || n%2 != 0 || k%2 != 0 {
		c.kern.Mul(out, a, b)
		c.r.Compute(matrix.MulFlops(m, n, k))
		return
	}
	id := c.r.ID()
	mh, nh, kh := m/2, n/2, k/2
	a11, a12 := a.View(0, 0, mh, kh), a.View(0, kh, mh, kh)
	a21, a22 := a.View(mh, 0, mh, kh), a.View(mh, kh, mh, kh)
	b11, b12 := b.View(0, 0, kh, nh), b.View(0, nh, kh, nh)
	b21, b22 := b.View(kh, 0, kh, nh), b.View(kh, nh, kh, nh)
	c11, c12 := out.View(0, 0, mh, nh), out.View(0, nh, mh, nh)
	c21, c22 := out.View(mh, 0, mh, nh), out.View(mh, nh, mh, nh)

	mark := c.scratch.Mark(id)
	ta := c.scratch.Matrix(id, mh, kh)
	tb := c.scratch.Matrix(id, kh, nh)
	mt := c.scratch.Matrix(id, mh, nh)

	// M1 = (A11+A22)(B11+B22) → +C11, +C22
	ta.CopyFrom(a11)
	ta.Add(a22)
	tb.CopyFrom(b11)
	tb.Add(b22)
	localStrassen(c, mt, ta, tb)
	c11.Add(mt)
	c22.Add(mt)
	// M2 = (A21+A22)·B11 → +C21, −C22
	ta.CopyFrom(a21)
	ta.Add(a22)
	mt.Zero()
	localStrassen(c, mt, ta, b11)
	c21.Add(mt)
	c22.Sub(mt)
	// M3 = A11·(B12−B22) → +C12, +C22
	tb.CopyFrom(b12)
	tb.Sub(b22)
	mt.Zero()
	localStrassen(c, mt, a11, tb)
	c12.Add(mt)
	c22.Add(mt)
	// M4 = A22·(B21−B11) → +C11, +C21
	tb.CopyFrom(b21)
	tb.Sub(b11)
	mt.Zero()
	localStrassen(c, mt, a22, tb)
	c11.Add(mt)
	c21.Add(mt)
	// M5 = (A11+A12)·B22 → −C11, +C12
	ta.CopyFrom(a11)
	ta.Add(a12)
	mt.Zero()
	localStrassen(c, mt, ta, b22)
	c11.Sub(mt)
	c12.Add(mt)
	// M6 = (A21−A11)(B11+B12) → +C22
	ta.CopyFrom(a21)
	ta.Sub(a11)
	tb.CopyFrom(b11)
	tb.Add(b12)
	mt.Zero()
	localStrassen(c, mt, ta, tb)
	c22.Add(mt)
	// M7 = (A12−A22)(B21+B22) → +C11
	ta.CopyFrom(a12)
	ta.Sub(a22)
	tb.CopyFrom(b21)
	tb.Add(b22)
	mt.Zero()
	localStrassen(c, mt, ta, tb)
	c11.Add(mt)

	c.scratch.Rewind(id, mark)
}

func indexIn(team []int, id int) int {
	for i, t := range team {
		if t == id {
			return i
		}
	}
	return -1
}

// localMulFlops is the kernel flop count of the local recursion on one
// leaf subproblem: 7 recursive calls per level while even and above
// the cutoff, 2mnk at the kernel leaves.
func localMulFlops(m, n, k, cutoff int) float64 {
	if m <= cutoff || n <= cutoff || k <= cutoff || m%2 != 0 || n%2 != 0 || k%2 != 0 {
		return 2 * float64(m) * float64(n) * float64(k)
	}
	return 7 * localMulFlops(m/2, n/2, k/2, cutoff)
}

// Model implements algo.Planner: a structural estimate derived from
// the same step schedule that drives execution. Per BFS level a
// subteam rank receives its share of one A and one B operand
// combination (6/7 of it comes from other ranks) plus its band of the
// 12 combine transfers; a DFS level pays the operand cost for all
// seven subproblems over the full team and multiplies the instance
// count of every deeper level by 7. The flop count is the kernel work
// of the 7^(levels) leaf multiplications — Θ(n^ω/P) with ω = log₂ 7.
func (c CAPS) Model(m, n, k, p, s int) algo.Model {
	cutoff := c.Cutoff
	if cutoff <= 0 {
		cutoff = DefaultCutoff
	}
	steps, used := schedule(m, n, k, p, s, cutoff)

	remote := 6.0 / 7.0 // fraction of a redistributed operand sourced off-rank
	var recv, msgs float64
	inst := 1.0 // subproblem instances this rank executes at the current level
	q := used
	cm, cn, ck := m, n, k
	dfs := 0
	for _, st := range steps {
		mh, nh, kh := cm/2, cn/2, ck/2
		opWords := float64(mh*kh + kh*nh)
		combWords := 12 * float64(mh*nh) / 4
		if st == stepBFS {
			sub := q / 7
			recv += inst * (opWords*remote/float64(sub) + combWords*remote/float64(q))
			msgs += inst * 40
			q = sub
		} else {
			recv += inst * (7*opWords*remote/float64(q) + combWords*remote/float64(q))
			msgs += inst * 40
			dfs++
			inst *= 7
		}
		cm, cn, ck = mh, nh, kh
	}
	flops := inst * localMulFlops(cm, cn, ck, cutoff)
	return algo.Model{
		Name:     c.Name(),
		Grid:     gridString(used, steps),
		Used:     used,
		AvgRecv:  recv * float64(used) / float64(p),
		MaxRecv:  recv,
		MaxMsgs:  msgs,
		MaxFlops: flops,
	}
}
