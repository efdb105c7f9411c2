package cosma

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cosma/internal/algo"
	"cosma/internal/machine"
)

// Plan is an immutable compiled multiplication schedule for one problem
// shape under one engine's options: the fitted processor grid, the
// round schedule and the analytic model. A Plan performs no grid
// fitting when executed — that all happened when it was built — and is
// safe for concurrent use; per-execution state lives in Executors.
type Plan struct {
	inner algo.Plan
	// cfg is the owning engine's normalized options: the executors'
	// transport, kernel and fault settings, the retry policy (nil =
	// single attempt) and ABFT verification.
	cfg *engineConfig
	// sharedMach, when set, is the engine's wire-transport machine every
	// executor of this plan runs on (the mesh is one per process, so
	// executors cannot each own one); execMu serializes executions on
	// it across all of the engine's plans.
	sharedMach *machine.Machine
	execMu     *sync.Mutex

	// Fault-tolerance wiring from the engine (see retry.go): the
	// transport recovery hook run between attempts, the engine's closed
	// flag, and whether the machine's ranks span several OS processes
	// (which constrains corruption retries — see WithVerification).
	recoverFn func() error
	closed    *atomic.Bool
	multiProc bool

	// Executor free list. Engine.Exec borrows from here so concurrent
	// same-shape multiplications each get a machine of their own while
	// sequential ones keep reusing one.
	mu   sync.Mutex
	free []*Executor
}

// Algorithm returns the display name of the algorithm that produced
// the plan.
func (p *Plan) Algorithm() string { return p.inner.Algorithm() }

// Dims returns the (m, n, k) problem shape the plan multiplies.
func (p *Plan) Dims() (m, n, k int) { return p.inner.Dims() }

// Procs returns the machine size p the plan was fitted for.
func (p *Plan) Procs() int { return p.inner.Procs() }

// Used returns the number of ranks that perform work.
func (p *Plan) Used() int { return p.inner.Used() }

// Grid returns the human-readable decomposition.
func (p *Plan) Grid() string { return p.inner.Grid() }

// Model returns the analytic communication/computation prediction for
// the planned schedule.
func (p *Plan) Model() Model { return p.inner.Model() }

// Decomposition returns the §6.3 schedule geometry (grid, local domain,
// rounds) when the algorithm exposes it — the Algorithm 1 schedules
// (COSMA, SUMMA, 2.5D) do; CARMA and Cannon report false.
func (p *Plan) Decomposition() (Decomposition, bool) {
	if d, ok := p.inner.(algo.Decomposed); ok {
		return d.Decomposition(), true
	}
	return Decomposition{}, false
}

// String implements fmt.Stringer: the decomposition where the plan has
// one, else its grid and rank count — never the algorithm's name, which
// callers print themselves.
func (p *Plan) String() string {
	if d, ok := p.Decomposition(); ok {
		return d.String()
	}
	return fmt.Sprintf("grid %s (%d ranks)", p.Grid(), p.Used())
}

// NewExecutor returns a fresh executor for this plan: a pre-built
// simulated machine and a per-rank scratch arena, both reused across
// every Exec call, so repeated same-shape multiplications allocate only
// their outputs. An Executor is not safe for concurrent use — create
// one per goroutine (Engine.Exec pools them automatically). Executors
// of a wire-transport plan all share the engine's one machine; never
// run two of them at once.
func (p *Plan) NewExecutor() *Executor {
	inner, err := algo.NewExecutor(p.inner, algo.ExecOptions{
		Network:       p.cfg.network,
		KernelThreads: p.cfg.kernelThreads,
		Autotune:      p.cfg.autotune,
		RecvTimeout:   p.cfg.recvTimeout,
		Machine:       p.sharedMach,
		Faults:        p.cfg.faults,
	})
	if err != nil {
		// Unreachable: Engine.Plan validates the wire gather gate, the
		// shared machine's rank count and the fault plan's rank bounds
		// before building the plan.
		panic(err)
	}
	return &Executor{plan: p, inner: inner}
}

// acquire borrows a pooled executor, building one on first use.
func (p *Plan) acquire() *Executor {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return e
	}
	p.mu.Unlock()
	return p.NewExecutor()
}

// release returns a borrowed executor to the pool. The pool is capped
// at GOMAXPROCS: each executor retains a whole simulated machine plus
// per-rank scratch, and keeping more than can ever run concurrently
// would pin a past burst's memory forever — beyond the cap the executor
// is dropped for the GC instead.
func (p *Plan) release(e *Executor) {
	p.mu.Lock()
	if len(p.free) < runtime.GOMAXPROCS(0) {
		p.free = append(p.free, e)
	}
	p.mu.Unlock()
}

// exec runs one multiplication on a pooled executor. Wire-transport
// plans additionally serialize on the engine's machine: wire runs are
// collective across processes and must not interleave epochs.
func (p *Plan) exec(ctx context.Context, a, b *Matrix) (*Matrix, *Report, error) {
	if p.execMu != nil {
		p.execMu.Lock()
		defer p.execMu.Unlock()
	}
	e := p.acquire()
	defer p.release(e)
	return p.runRetry(ctx, e, a, b)
}

// Executor executes one Plan repeatedly. It owns a pre-built machine
// and pooled per-rank buffers that every Exec reuses, so the warm path
// performs zero grid-fitting work and allocates only its outputs. Not
// safe for concurrent use.
type Executor struct {
	plan  *Plan
	inner *algo.Executor
}

// Plan returns the plan this executor drives.
func (e *Executor) Plan() *Plan { return e.plan }

// Exec multiplies a·b under the executor's plan. The inputs must match
// the planned shape. Cancelling ctx aborts the run at the next
// communication-round boundary (ranks parked in a receive are woken)
// and returns ctx.Err(); the executor remains reusable
// afterwards. a and b are read in place for the duration of the call
// and must not be written until it returns.
func (e *Executor) Exec(ctx context.Context, a, b *Matrix) (*Matrix, *Report, error) {
	return e.inner.Exec(ctx, a, b)
}
