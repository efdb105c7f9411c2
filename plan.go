package cosma

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"cosma/internal/algo"
	"cosma/internal/machine"
)

// Plan is an immutable compiled multiplication schedule for one problem
// shape under one engine's options: the fitted processor grid, the
// round schedule and the analytic model. A Plan performs no grid
// fitting when executed — that all happened when it was built — and is
// safe for concurrent use. It is executed through its engine
// (Engine.Exec, Engine.MultiplyBatch), which is where the closed check,
// the wire serialization, the retry policy and verification live.
type Plan struct {
	inner *algo.Plan
	eng   *Engine

	// Executor free list: concurrent same-shape multiplications each
	// borrow a machine of their own while sequential ones keep reusing
	// one.
	mu   sync.Mutex
	free []*algo.Executor
}

// Algorithm returns the display name of the algorithm that produced
// the plan.
func (p *Plan) Algorithm() string { return p.inner.Name }

// Model returns the analytic communication/computation prediction for
// the planned schedule.
func (p *Plan) Model() Model { return p.inner.Model }

// Decomposition returns the §6.3 schedule geometry (grid, local domain,
// rounds) when the algorithm exposes it — the Algorithm 1 schedules
// (COSMA, SUMMA, 2.5D) do; CARMA and Cannon report false.
func (p *Plan) Decomposition() (Decomposition, bool) {
	if p.inner.Geometry == nil {
		return Decomposition{}, false
	}
	return *p.inner.Geometry, true
}

// String implements fmt.Stringer: the decomposition where the plan has
// one, else its grid and rank count — never the algorithm's name, which
// callers print themselves.
func (p *Plan) String() string {
	if d, ok := p.Decomposition(); ok {
		return d.String()
	}
	return fmt.Sprintf("grid %s (%d ranks)", p.inner.Grid, p.inner.Used)
}

// newExecutor builds an executor for this plan under the engine's
// options: a machine configured here — the engine's one shared machine
// on the wire transport, otherwise a fresh one on the engine's network
// — and a per-rank scratch arena, both reused by every run on it, so
// repeated same-shape multiplications allocate only their outputs.
func (p *Plan) newExecutor() (*algo.Executor, error) {
	cfg := &p.eng.cfg
	mach := p.eng.wireMach
	if mach == nil {
		mach = machine.NewWithNetwork(p.inner.P, cfg.network)
	}
	if cfg.recvTimeout > 0 {
		mach.SetRecvTimeout(cfg.recvTimeout)
	}
	if cfg.faults != nil {
		if err := mach.SetFaultPlan(*cfg.faults); err != nil {
			return nil, err
		}
	}
	return algo.NewExecutor(p.inner, mach)
}

// acquire borrows a pooled executor, building one on first use.
func (p *Plan) acquire() (*algo.Executor, error) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return e, nil
	}
	p.mu.Unlock()
	return p.newExecutor()
}

// release returns a borrowed executor to the pool. The pool is capped
// at GOMAXPROCS: each executor retains a whole simulated machine plus
// per-rank scratch, and keeping more than can ever run concurrently
// would pin a past burst's memory forever — beyond the cap the executor
// is dropped for the GC instead.
func (p *Plan) release(e *algo.Executor) {
	p.mu.Lock()
	if len(p.free) < runtime.GOMAXPROCS(0) {
		p.free = append(p.free, e)
	}
	p.mu.Unlock()
}

// run multiplies pairs in order on one pooled executor, each pair under
// the engine's retry policy and verification. Wire-transport engines
// additionally serialize on their one machine: wire runs are collective
// across processes and must not interleave epochs. The returned slices
// have len(pairs) capacity and hold the pairs completed — on error,
// their length is the index of the pair that failed.
func (p *Plan) run(ctx context.Context, pairs []Pair) ([]*Matrix, []*Report, error) {
	outs := make([]*Matrix, 0, len(pairs))
	reps := make([]*Report, 0, len(pairs))
	if p.eng.wireMach != nil {
		p.eng.wireMu.Lock()
		defer p.eng.wireMu.Unlock()
	}
	ex, err := p.acquire()
	if err != nil {
		return outs, reps, err
	}
	defer p.release(ex)
	for _, pr := range pairs {
		c, rep, err := p.runRetry(ctx, ex, pr.A, pr.B)
		if err != nil {
			return outs, reps, err
		}
		outs, reps = append(outs, c), append(reps, rep)
	}
	return outs, reps, nil
}
