package algo

import (
	"context"
	"errors"
	"fmt"
	"runtime"

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
	// Geometry is the §6.3 schedule geometry of an Algorithm 1 plan
	// (COSMA, SUMMA, 2.5D, CARMA); nil where the schedule has none
	// (Cannon).
	Geometry *Decomposition
	// Overlap records that Execute pipelines its rounds (§7.3): what the
	// plan decided, which is Config.Overlap only where S has room.
	Overlap bool
	// Execute runs the schedule on mach, which spans P ranks
	// (NewExecutor checks), multiplying a·b and drawing rank-local scratch
	// from scratch (nil for fresh allocations). a and b are read in place
	// by every rank for the duration of the call and never written; the
	// caller must not write them until Execute returns. Cancellation of
	// ctx is honored at communication-round boundaries and unblocks
	// ranks parked in a receive. It returns the product through a Gather,
	// so on a machine spanning several OS processes (the wire transport)
	// the process hosting rank 0 returns it and every other one a zero
	// matrix.
	Execute func(ctx context.Context, mach *machine.Machine, scratch *Arena, a, b *matrix.Dense) (*matrix.Dense, error)
}

// ErrUnsupportedShape marks a Spec.Plan refusal that is a restriction of
// the algorithm, not a bug or an invalid argument: Cannon off a square
// torus that divides the dimensions, a fixed grid longer than a dimension
// it cuts. Comparisons skip such a row and fail on any other error.
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
// machine with per-rank scratch buffers that are recycled across calls,
// so repeated same-shape multiplications pay only the execution cost.
// An Executor is not safe for concurrent use; run concurrent executions
// on separate Executors of the same Plan.
type Executor struct {
	plan    *Plan
	mach    *machine.Machine
	scratch *Arena
}

// NewExecutor builds an executor for p on mach, which must span the
// plan's P ranks; the scratch arena is allocated once here and reused by
// every Exec. The caller configures mach and keeps ownership;
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
	e.scratch.Reset()
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
// machine pool, and Assemble copies the shares into the product and
// releases them. On a multi-process machine the ranks other than 0 send
// their non-empty shares to rank 0 instead, tagged by sender, so only
// the process hosting rank 0 assembles the product; the others return a
// zero matrix.
type Gather struct {
	multi  bool
	ranks  int
	place  func(block, id int) Piece
	shares [][]float64 // by block, then rank
}

// NewGather returns the gather of blocks C blocks on mach, each cut into
// shares held by ranks 0 … ranks−1 that land where place says.
func NewGather(mach *machine.Machine, blocks, ranks int, place func(block, id int) Piece) *Gather {
	return &Gather{multi: mach.MultiProcess(), ranks: ranks, place: place, shares: make([][]float64, blocks*ranks)}
}

// Put hands over r's share of block; at rank 0 of a multi-process
// machine it also receives the block's other non-empty shares.
func (g *Gather) Put(r *machine.Rank, block int, share []float64) {
	mine, id := g.shares[block*g.ranks:(block+1)*g.ranks], r.ID()
	switch {
	case !g.multi:
		mine[id] = share
	case id != 0:
		if len(share) > 0 {
			r.SendOwned(0, tagGather+id, share)
		}
	default:
		mine[0] = share
		for src := 1; src < g.ranks; src++ {
			if g.place(block, src).Words.Len() > 0 {
				mine[src] = r.Recv(src, tagGather+src)
			}
		}
	}
}

// Assemble returns the m×n product, each share landing one row piece at
// a time.
func (g *Gather) Assemble(m, n int) *matrix.Dense {
	out := matrix.New(m, n)
	for i, share := range g.shares {
		pc := g.place(i/g.ranks, i%g.ranks)
		for rest, w := share, pc.Words.Lo; len(rest) > 0; {
			row, col := w/pc.Width, w%pc.Width
			c := copy(out.Data[(pc.Top+row)*out.Stride+pc.Left+col:][:pc.Width-col], rest)
			rest, w = rest[c:], w+c
		}
		machine.Release(share)
	}
	return out
}

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

// Arena is a set of per-rank scratch matrices — the C tiles and
// temporaries a rank program accumulates into — and GEMM kernels reused
// across executions. A deterministic schedule requests the same
// sequence of shapes on every execution, so after the first run every
// request is served from the buffers of the previous one and the steady
// state allocates nothing — including the kernels' packing buffers.
// Each rank touches only its own slots, so concurrent rank programs
// need no locking; Reset must be called between executions with no rank
// program running.
type Arena struct {
	ranks []rankScratch
	// kernelThreads bounds each rank kernel's worker pool; ≤ 0 means
	// serial. NewExecutor sets the GOMAXPROCS-aware width here.
	kernelThreads int
}

type rankScratch struct {
	mats []*matrix.Dense
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
// executions. A nil arena returns a fresh serial kernel.
func (a *Arena) Kernel(rank int) *matrix.Kernel {
	if a == nil {
		return matrix.NewKernel(1)
	}
	rs := &a.ranks[rank]
	if rs.kern == nil {
		t := a.kernelThreads
		if t < 1 {
			t = 1
		}
		rs.kern = matrix.NewKernel(t)
	}
	return rs.kern
}

// Reset recycles every buffer for the next execution.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	for i := range a.ranks {
		a.ranks[i].next = 0
	}
}

// Retained returns the words of scratch-matrix storage the arena keeps
// for the next execution, summed over ranks (kernel pack buffers, which
// are bounded by the cache-block parameters, not counted).
func (a *Arena) Retained() int {
	if a == nil {
		return 0
	}
	words := 0
	for _, rs := range a.ranks {
		for _, m := range rs.mats {
			words += cap(m.Data)
		}
	}
	return words
}

// Matrix returns a zeroed rows×cols scratch matrix owned by rank until
// the next Reset. A nil arena degrades to a plain allocation. Arena
// matrices must never be handed to machine.Release or SendOwned — the
// arena retains them for the next execution.
func (a *Arena) Matrix(rank, rows, cols int) *matrix.Dense {
	if a == nil {
		return matrix.New(rows, cols)
	}
	m, reused := a.get(rank, rows, cols)
	if reused {
		m.Zero()
	}
	return m
}

// Clone returns a scratch copy of src owned by rank until the next
// Reset — the arena-backed counterpart of matrix.Dense.Clone. Every
// rank program reads its input pieces in place; only the repo
// benchmark's clone-in replay, which times the copy the schedules no
// longer make, calls it.
func (a *Arena) Clone(rank int, src *matrix.Dense) *matrix.Dense {
	if a == nil {
		return src.Clone()
	}
	m, _ := a.get(rank, src.Rows, src.Cols)
	m.CopyFrom(src)
	return m
}

// get returns the next scratch slot for rank resized to rows×cols,
// reporting whether it recycled an earlier buffer (whose stale contents
// the caller must overwrite).
func (a *Arena) get(rank, rows, cols int) (m *matrix.Dense, reused bool) {
	rs := &a.ranks[rank]
	if rs.next < len(rs.mats) {
		if m := rs.mats[rs.next]; cap(m.Data) >= rows*cols {
			rs.next++
			m.Rows, m.Cols, m.Stride = rows, cols, cols
			m.Data = m.Data[:rows*cols]
			return m, true
		}
	}
	m = matrix.New(rows, cols)
	if rs.next < len(rs.mats) {
		rs.mats[rs.next] = m
	} else {
		rs.mats = append(rs.mats, m)
	}
	rs.next++
	return m, false
}
