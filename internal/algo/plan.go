package algo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"

	"cosma/internal/layout"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

// Plan is a compiled schedule and its numbers: everything derived from
// (m, n, k, p, S) alone — the fitted processor grid, the round schedule,
// the count of what it moves — independent of the matrix values. The
// embedded Model carries the plan's name, grid string, working ranks and
// analytic counts. A Plan is immutable once its algorithm returns it and
// safe for concurrent use; all per-execution state lives in the Executor
// driving it.
type Plan struct {
	Model
	// M, N, K is the problem shape the plan multiplies, P the machine
	// size it was compiled for.
	M, N, K, P int
	// Geometry is the plan's §6.3 schedule geometry.
	Geometry Decomposition
	// Overlap records that Execute pipelines its rounds (§7.3): what the
	// plan decided, which is Config.Overlap only where S has room.
	Overlap bool
	// Execute runs the schedule on mach, which spans P ranks
	// (NewExecutor checks), multiplying a·b with each rank's kernel from
	// scratch. a and b are read in place by every rank for the
	// duration of the call and never written; the caller must not write
	// them until Execute returns. Cancellation of ctx is honored at
	// communication-round boundaries and unblocks ranks parked in a
	// receive. It returns the product through a Gather, so on a machine
	// spanning several OS processes (the wire transport) the process
	// hosting rank 0 returns it and every other one a zero matrix.
	Execute func(ctx context.Context, mach *machine.Machine, scratch *Arena, a, b *matrix.Dense) (*matrix.Dense, error)
}

// ErrUnsupportedShape marks a Spec.Plan refusal that is a restriction of
// the algorithm, not a bug or an invalid argument: a fixed grid longer
// than a dimension it cuts. Comparisons skip such a row and fail on any
// other error.
var ErrUnsupportedShape = errors.New("shape not supported by this algorithm")

// Decomposition describes a plan's §6.3 schedule geometry: the fitted
// processor grid and the local-domain extents per rank. A plan of
// several C blocks reports its largest block's domain and the rounds of
// all its blocks.
type Decomposition struct {
	GridPm, GridPn, GridPk    int // the fitted processor grid (§7.1)
	RanksUsed                 int
	DomainM, DomainN, DomainK int // local domain extents per rank
	StepSize                  int // most outer products one communication round carries
	Rounds                    int // rounds the longest k slab executes, ownership cuts and every C block included
	Bands                     int // row blocks a round's A panel is broadcast in; 1 sends it whole
	Blocks                    int // C blocks the ranks multiply one after another (CARMA's DFS); 1 for the others
}

// String implements fmt.Stringer.
func (d Decomposition) String() string {
	s := fmt.Sprintf("grid [%d×%d×%d] (%d ranks), domain [%d×%d×%d], %d rounds of %d",
		d.GridPm, d.GridPn, d.GridPk, d.RanksUsed,
		d.DomainM, d.DomainN, d.DomainK, d.Rounds, d.StepSize)
	if d.Blocks > 1 {
		s += fmt.Sprintf(", C in %d blocks", d.Blocks)
	}
	if d.Bands > 1 {
		s += fmt.Sprintf(", A in %d bands", d.Bands)
	}
	return s
}

// Executor executes one Plan repeatedly on a dedicated pre-built
// machine with per-rank kernels that are recycled across calls, so
// repeated same-shape multiplications pay only the execution cost.
// An Executor is not safe for concurrent use; run concurrent executions
// on separate Executors of the same Plan.
type Executor struct {
	plan    *Plan
	mach    *machine.Machine
	scratch *Arena
}

// NewExecutor builds an executor for p on mach, which must span the
// plan's P ranks; the kernels' arena is allocated once here and reused
// by every Exec. The caller configures mach and keeps ownership;
// executions on one machine must not overlap. Each rank's local GEMM
// gets the cores left over once every working rank on this process
// has one (max(1, GOMAXPROCS / ranks sharing them)), so a single-rank
// plan on an idle machine multiplies with every core while a
// fully-populated simulation stays one goroutine per rank.
func NewExecutor(p *Plan, mach *machine.Machine) (*Executor, error) {
	if mach.P() != p.P {
		return nil, fmt.Errorf("algo: plan is for p=%d but the supplied machine has %d ranks", p.P, mach.P())
	}
	sharing := max(p.Used, 1)
	// On a multi-process machine only the local ranks compete for this
	// process's cores.
	if l := len(mach.LocalRanks()); l > 0 && l < sharing {
		sharing = l
	}
	scratch := NewArena(p.P)
	scratch.kernelThreads = max(1, runtime.GOMAXPROCS(0)/sharing)
	return &Executor{plan: p, mach: mach, scratch: scratch}, nil
}

// Exec multiplies a·b under the executor's plan and reports the
// executed run. It validates the inputs against the planned shape and
// returns ctx.Err() if the context is cancelled before or during the
// run.
func (e *Executor) Exec(ctx context.Context, a, b *matrix.Dense) (*matrix.Dense, *Report, error) {
	m, n, k := e.plan.M, e.plan.N, e.plan.K
	if a.Rows != m || a.Cols != k || b.Rows != k || b.Cols != n {
		return nil, nil, fmt.Errorf("algo: plan is for %d×%d·%d×%d but got %d×%d·%d×%d",
			m, k, k, n, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	c, err := e.plan.Execute(ctx, e.mach, e.scratch, a, b)
	if err != nil {
		return nil, nil, err
	}
	// The report's traffic columns cover all p ranks, not just the local
	// ones: on a multi-process machine, merge the remote processes'
	// counters first. A merge that came up short would under-report.
	if err := e.mach.SyncCounters(); err != nil {
		return nil, nil, fmt.Errorf("algo: merging the processes' counters: %w", err)
	}
	return c, NewReport(e.mach, e.plan), nil
}

// tagGather tags the result gather, offset by the sender's id: clear of
// every rank program's tags, which stay below 7<<20.
const tagGather = 7 << 20

// Piece is where a share of C lands: words Words of the row-major tile
// of C whose top left element is (Top, Left) and whose rows are Width
// long.
type Piece struct {
	Top, Left, Width int
	Words            layout.Range
}

// Gather is the one result path of every plan's Execute. Each working
// rank Puts its share of every C block it multiplies, loaned from the
// machine pool, and on an in-process machine Put copies the share into
// the product and releases it — in parallel, while the share is still
// in the rank's cache. On a multi-process machine the ranks other than
// 0 send their non-empty shares to rank 0 instead, tagged by sender, so
// only the process hosting rank 0 fills the product; the others return
// a zero matrix. The product's storage is a machine.Loan the caller
// owns: it may drop it or hand it back with machine.Release.
type Gather struct {
	out   *matrix.Dense
	multi bool
	ranks int
	place func(block, id int) Piece
}

// NewGather returns the gather of an m×n product cut into blocks C
// blocks, each cut into shares held by ranks 0 … ranks−1 that land where
// place says. The shares cover the product, so its loan is cleared only
// in a process that hosts no rank 0 and so lands none.
func NewGather(mach *machine.Machine, m, n, blocks, ranks int, place func(block, id int) Piece) *Gather {
	g := &Gather{out: matrix.FromSlice(m, n, machine.Loan(m*n)), multi: mach.MultiProcess(), ranks: ranks, place: place}
	if g.multi && !slices.Contains(mach.LocalRanks(), 0) {
		clear(g.out.Data)
	}
	return g
}

// Put hands over r's share of block; at rank 0 of a multi-process
// machine it also receives the block's other non-empty shares.
func (g *Gather) Put(r *machine.Rank, block int, share []float64) {
	id := r.ID()
	switch {
	case !g.multi:
		g.land(block, id, share)
	case id != 0:
		if len(share) > 0 {
			r.SendOwned(0, tagGather+id, share)
		}
	default:
		g.land(block, 0, share)
		for src := 1; src < g.ranks; src++ {
			if g.place(block, src).Words.Len() > 0 {
				g.land(block, src, r.Recv(src, tagGather+src))
			}
		}
	}
}

// land copies rank id's share of block into the product, one row piece
// at a time, and releases it.
func (g *Gather) land(block, id int, share []float64) {
	pc := g.place(block, id)
	for rest, w := share, pc.Words.Lo; len(rest) > 0; {
		row, col := w/pc.Width, w%pc.Width
		c := copy(g.out.Data[(pc.Top+row)*g.out.Stride+pc.Left+col:][:pc.Width-col], rest)
		rest, w = rest[c:], w+c
	}
	machine.Release(share)
}

// Assemble returns the product, once every rank's program has returned.
func (g *Gather) Assemble() *matrix.Dense { return g.out }

// Run is the one-shot path of the experiment tables and tests: compile
// the shape of a·b with plan (a Spec's Plan) under cfg on net, build a
// fresh machine on net (nil counts), execute once.
func Run(plan func(cfg Config, m, n, k, p, s int) (*Plan, error), cfg Config, net *machine.NetworkParams, a, b *matrix.Dense, p, s int) (*matrix.Dense, *Report, error) {
	if a.Cols != b.Rows {
		return nil, nil, fmt.Errorf("algo: A is %d×%d but B is %d×%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	cfg.Network = net
	pl, err := plan(cfg, a.Rows, b.Cols, a.Cols, p, s)
	if err != nil {
		return nil, nil, err
	}
	ex, err := NewExecutor(pl, machine.NewWithNetwork(p, net))
	if err != nil {
		return nil, nil, err
	}
	return ex.Exec(context.Background(), a, b)
}

// Arena is a set of per-rank GEMM kernels reused across executions, so
// the steady state packs without allocating, plus the scratch copies
// Clone makes. Each rank touches only its own slots, so concurrent rank
// programs need no locking. No rank program keeps a matrix here: each
// rank's C tile is a machine.Loan for one execution.
type Arena struct {
	ranks []rankScratch
	// kernelThreads bounds each rank kernel's worker pool; ≤ 0 means
	// serial. NewExecutor sets the GOMAXPROCS-aware width here.
	kernelThreads int
}

type rankScratch struct {
	mats []*matrix.Dense // Clone's copies
	next int
	kern *matrix.Kernel
}

// NewArena returns an empty arena for p ranks with serial kernels.
func NewArena(p int) *Arena {
	return &Arena{ranks: make([]rankScratch, p)}
}

// Kernel returns rank's packed GEMM kernel, creating it on first use
// with the arena's thread bound. The kernel — and, crucially, its pack
// buffers — survives Reset, so packing is allocation-free across
// executions.
func (a *Arena) Kernel(rank int) *matrix.Kernel {
	rs := &a.ranks[rank]
	if rs.kern == nil {
		rs.kern = matrix.NewKernel(max(a.kernelThreads, 1))
	}
	return rs.kern
}

// Reset recycles Clone's copies for the next ones, with no rank
// program running.
func (a *Arena) Reset() {
	for i := range a.ranks {
		a.ranks[i].next = 0
	}
}

// Clone returns a scratch copy of src owned by rank until the next
// Reset — the arena-backed counterpart of matrix.Dense.Clone. Every
// rank program reads its input pieces in place; only the repo
// benchmark's clone-in replay, which times the copy the schedules no
// longer make, calls it. A deterministic caller clones the same shapes
// every time, so after the first round of copies every one reuses the
// buffer of the last.
func (a *Arena) Clone(rank int, src *matrix.Dense) *matrix.Dense {
	if a == nil {
		return src.Clone()
	}
	rs := &a.ranks[rank]
	var m *matrix.Dense
	if rs.next < len(rs.mats) && cap(rs.mats[rs.next].Data) >= src.Rows*src.Cols {
		m = rs.mats[rs.next]
		m.Rows, m.Cols, m.Stride = src.Rows, src.Cols, src.Cols
		m.Data = m.Data[:src.Rows*src.Cols]
	} else {
		m = matrix.New(src.Rows, src.Cols)
		if rs.next < len(rs.mats) {
			rs.mats[rs.next] = m
		} else {
			rs.mats = append(rs.mats, m)
		}
	}
	rs.next++
	m.CopyFrom(src)
	return m
}
