package cosma

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cosma/internal/algo"
	"cosma/internal/baselines"
	"cosma/internal/lru"
	"cosma/internal/machine"
	"cosma/internal/machine/wire"
)

// Engine is the amortizing front door to the distributed multiplication
// algorithms: it normalizes one option set (processors, memory,
// network, algorithm), owns an LRU cache of compiled plans keyed by the
// problem shape under those options, and pools executors (pre-built
// machines with reusable per-rank buffers) per plan. An Engine is safe
// for concurrent use; every repeated same-shape multiplication pays
// only the execution cost.
type Engine struct {
	cfg  engineConfig
	spec algo.Spec // the engine's row of the table of algorithms

	// mu guards the plan cache and its hit/miss accounting. Planning a
	// missed shape happens under the lock too: fits are deterministic
	// and cheap relative to execution, and this keeps each shape fitted
	// exactly once no matter how many goroutines race to it.
	mu     chanMutex
	plans  *lru.Cache[planKey, *Plan]
	hits   int64
	misses int64

	// Wire-transport state (WithWireTransport): the one socket mesh and
	// machine this process contributes to the cluster. Every plan of the
	// engine executes on this shared machine, serialized by wireMu —
	// wire runs are collective across processes, so overlapping two of
	// them on one mesh would interleave their epochs.
	wireTr   *wire.Transport
	wireMach *machine.Machine
	wireMu   sync.Mutex

	// closed flips once Close is called; in-flight retry loops observe
	// it between attempts and bail with ErrEngineClosed instead of
	// re-running on a transport being torn down.
	closed    atomic.Bool
	closeOnce sync.Once
	closeErr  error
}

// chanMutex is a context-aware mutex: Plan holds it across a cache miss
// (a grid fit), and a caller whose context dies while queued should
// give up rather than park forever behind a large fit.
type chanMutex chan struct{}

func (m chanMutex) lock(ctx context.Context) error {
	select {
	case m <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m chanMutex) unlock() { <-m }

// planKey identifies one cached plan. An engine's options are fixed at
// NewEngine, so within its cache only the shape varies.
type planKey struct{ m, n, k int }

type engineConfig struct {
	procs       int
	memory      int
	network     *NetworkParams
	algorithm   string
	overlap     bool
	wireCfg     *wire.Config
	recvTimeout time.Duration
	faults      *machine.FaultPlan
	attempts    int // WithRetry's bound on executions; 0 means one
	verify      bool
	err         error // first option error, surfaced by NewEngine
}

// Option configures an Engine.
type Option func(*engineConfig)

// WithProcs sets the number of simulated processors p. Zero (the
// default) means 1.
func WithProcs(p int) Option {
	return func(c *engineConfig) {
		if p < 0 {
			c.err = fmt.Errorf("cosma: procs %d must be ≥ 0", p)
			return
		}
		c.procs = p
	}
}

// WithMemory sets the local memory per processor in words (S). Zero
// (the default) means UnboundedMemory.
func WithMemory(words int) Option {
	return func(c *engineConfig) {
		if words < 0 {
			c.err = fmt.Errorf("cosma: memory %d must be ≥ 0", words)
			return
		}
		c.memory = words
	}
}

// WithNetwork executes runs on the timed α-β-γ transport under net, so
// every report carries net and the measured CritPathTime, and
// Report.PredictedAsExecuted prices its Model on net. Without it the
// engine counts volumes only.
func WithNetwork(net NetworkParams) Option {
	return func(c *engineConfig) { c.network = &net }
}

// WithOverlap requests communication–computation overlap (§7.3), and
// it is on by default: the round loops software-pipeline, prefetching
// round i+1's panels with non-blocking broadcasts while the kernel
// multiplies round i's — double-buffered panel pairs per operand,
// swapped every round. The product is bitwise-identical to the
// synchronous schedule; on a timed engine the measured CritPathTime
// drops by up to the hidden communication (Figure 12). Every algorithm
// pipelines: all four run the Algorithm 1 round loop.
//
// The second panel pair is paid for out of WithMemory's S: a plan
// pipelines only where its C tile plus two panel pairs of its longest
// round fit in S, and otherwise runs one pair at a time, as its step
// was fitted for. Report.Overlap says which ran. WithOverlap(false) is
// the synchronous reference schedule.
func WithOverlap(on bool) Option {
	return func(c *engineConfig) { c.overlap = on }
}

// WithAutotune has no effect and is kept only because the repo
// benchmark's engine.autotune_over_default row names it.
//
// Deprecated: the block-size search it enabled is deleted — it measured
// 0.97–1.01 of the default on every workload, inside run-to-run spread
// — so there is one kernel configuration. The option leaves together
// with that benchmark row.
func WithAutotune(bool) Option { return func(*engineConfig) {} }

// WithAlgorithm selects the multiplication algorithm by name or alias —
// "cosma" (the default), "summa", "2.5d", "carma"; see
// Algorithms. Unknown names error at NewEngine.
func WithAlgorithm(name string) Option {
	return func(c *engineConfig) { c.algorithm = name }
}

// WithWireTransport executes runs on the wire transport: the engine's
// p ranks span the OS processes listed in cfg.Peers, connected over
// TCP or Unix-domain sockets, and this process hosts the ranks mapped
// to cfg.Peers[cfg.Rank]. NewEngine listens, dials every peer process
// and blocks until the mesh is up (cfg.DialTimeout bounds the wait),
// so all peer processes must construct their engines concurrently —
// see WireFromEnv/WireEnv for the launcher handshake.
//
// Wire runs are collective: every process must issue the same sequence
// of multiplications (same shapes, same order). The process hosting
// rank 0 receives the gathered product; the others get a zero matrix
// of the right shape. Close the engine to tear the mesh down.
// Incompatible with WithNetwork — the wire transport measures real
// traffic, not the α-β-γ model.
func WithWireTransport(cfg WireConfig) Option {
	return func(c *engineConfig) {
		if len(cfg.Peers) < 1 {
			c.err = fmt.Errorf("cosma: wire transport needs at least one peer address")
			return
		}
		if cfg.Rank < 0 || cfg.Rank >= len(cfg.Peers) {
			c.err = fmt.Errorf("cosma: wire rank %d out of range for %d peers", cfg.Rank, len(cfg.Peers))
			return
		}
		c.wireCfg = &cfg
	}
}

// WithRecvTimeout bounds every blocking receive of the engine's
// executions: a rank parked longer than d aborts the run
// with an error wrapping ErrRecvTimeout instead of hanging forever.
// On the wire transport this is the liveness guard against a peer
// process dying mid-run; it works on the in-process transports too.
// Zero (the default) waits indefinitely.
func WithRecvTimeout(d time.Duration) Option {
	return func(c *engineConfig) {
		if d < 0 {
			c.err = fmt.Errorf("cosma: receive timeout %v must be ≥ 0", d)
			return
		}
		c.recvTimeout = d
	}
}

// WithFaultPlan injects a deterministic chaos schedule into every
// execution: rank deaths in a chosen round, link faults (message
// drops, corruptions and delays), and slow-rank γ skew, applied at the
// machine's Rank layer so the same plan perturbs runs identically on
// the counting, timed and wire transports. Every injected failure
// class surfaces as a prompt error from Exec — an injected death wraps
// ErrFaultInjected, and a dropped or over-delayed message trips the
// WithRecvTimeout deadline (set one when injecting drops or delays; a
// lost message is indistinguishable from a lost peer). An empty plan
// is a no-op: clean runs stay bitwise-identical to an engine without
// the option.
func WithFaultPlan(fp FaultPlan) Option {
	return func(c *engineConfig) {
		if fp.Empty() {
			c.faults = nil
			return
		}
		c.faults = &fp
	}
}

// WithRetry makes Exec and MultiplyBatch survive transient faults:
// when a run fails with a retryable error — an injected fault
// (ErrFaultInjected), a receive deadline (ErrRecvTimeout), a wire peer
// failure or abort (ErrPeerFailure), or a detected silent corruption
// (ErrCorruption, with WithVerification) — the engine recovers the
// transport (on wire: re-execing dead workers through
// WireConfig.Respawn and rebuilding the lost connections), sleeps a
// backoff that starts at 10ms and doubles up to 1s, and re-runs on the
// same executor, up to attempts executions in all, the first included
// (1 never re-runs). Each attempt's first round overwrites every rank's
// C tile, as on any run, so a retried product is bitwise-identical to a
// fault-free one. Permanent errors — validation, context
// cancellation, a closed engine — are never retried. The successful
// Report carries the attempt count in Attempts.
func WithRetry(attempts int) Option {
	return func(c *engineConfig) {
		if attempts < 1 {
			c.err = fmt.Errorf("cosma: retry attempts %d must be ≥ 1", attempts)
			return
		}
		c.attempts = attempts
	}
}

// WithVerification appends Huang–Abraham ABFT checksums to every
// execution: the row sums of the product must equal A·(B·e) and the
// column sums (eᵀ·A)·B, so any silent corruption of the communicated
// panels or the gathered result — including a corrupting LinkFault —
// surfaces as ErrCorruption instead of a wrong answer. The check costs
// O(mn + mk + nk), asymptotically free next to the O(mnk) multiply,
// and never perturbs the product: a clean verified run is
// bitwise-identical to an unverified one. Combined with WithRetry, a
// detected corruption triggers a re-run on in-process (and wire
// loopback) engines; on a multi-process wire mesh only the process
// hosting rank 0 holds the gathered product, so it verifies alone and
// reports ErrCorruption without retrying (its peers saw a clean run
// and would not re-run with it).
func WithVerification(on bool) Option {
	return func(c *engineConfig) { c.verify = on }
}

// planCacheSize is the capacity of every engine's LRU plan cache, in
// distinct shapes.
const planCacheSize = 64

// NewEngine builds an engine from functional options. The zero
// configuration is a single-processor, unbounded-memory, counting
// COSMA engine that overlaps wherever S has room.
func NewEngine(opts ...Option) (*Engine, error) {
	cfg := engineConfig{algorithm: "cosma", overlap: true}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	if cfg.wireCfg != nil {
		if cfg.network != nil {
			return nil, fmt.Errorf("cosma: WithWireTransport and WithNetwork are mutually exclusive — the wire transport measures real traffic, not the α-β-γ model")
		}
		if cfg.procs != 0 && cfg.procs != len(cfg.wireCfg.Peers) {
			return nil, fmt.Errorf("cosma: WithProcs(%d) disagrees with the %d wire peer addresses", cfg.procs, len(cfg.wireCfg.Peers))
		}
		cfg.procs = len(cfg.wireCfg.Peers)
	}
	if cfg.procs == 0 {
		cfg.procs = 1
	}
	if cfg.memory == 0 {
		cfg.memory = UnboundedMemory
	}
	if cfg.faults != nil {
		if err := cfg.faults.Validate(cfg.procs); err != nil {
			return nil, err
		}
	}
	spec, err := baselines.Lookup(cfg.algorithm)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:   cfg,
		spec:  spec,
		mu:    make(chanMutex, 1),
		plans: lru.New[planKey, *Plan](planCacheSize),
	}
	if cfg.wireCfg != nil {
		tr, err := wire.New(*cfg.wireCfg)
		if err != nil {
			return nil, err
		}
		e.wireTr = tr
		e.wireMach = machine.NewLinked(tr)
		if !slices.Contains(e.wireMach.LocalRanks(), 0) {
			// Only the process hosting rank 0 holds the gathered product.
			e.cfg.verify = false
		}
	}
	return e, nil
}

// Close tears down the engine: new and in-flight Exec retries observe
// the closed flag and fail with ErrEngineClosed, the in-flight wire
// execution (if any) is drained, and then the wire transport's listener
// and peer connections are closed. Engines without WithWireTransport
// hold no external resources; Close only flips the flag. Close is
// idempotent and safe to call concurrently with Exec — every call
// returns the first call's result.
func (e *Engine) Close() error {
	e.closed.Store(true)
	e.closeOnce.Do(func() {
		if e.wireTr == nil {
			return
		}
		// Drain: a wire run in flight holds wireMu; taking it here means
		// the collective has finished (or its retry loop saw the closed
		// flag and bailed) before the mesh is torn down under it.
		e.wireMu.Lock()
		defer e.wireMu.Unlock()
		e.closeErr = e.wireTr.Close()
	})
	return e.closeErr
}

// WireRank returns the index of this process in the wire peer list and
// true when the engine runs on the wire transport.
func (e *Engine) WireRank() (int, bool) {
	if e.cfg.wireCfg == nil {
		return 0, false
	}
	return e.cfg.wireCfg.Rank, true
}

// Plan returns the engine's immutable compiled schedule for an m×k by
// k×n multiplication, fitting the grid at most once per shape: repeat
// calls (and Exec / MultiplyBatch on the same shape) hit the LRU plan
// cache and perform zero grid-fitting work.
func (e *Engine) Plan(ctx context.Context, m, n, k int) (*Plan, error) {
	if m < 1 || n < 1 || k < 1 {
		return nil, fmt.Errorf("cosma: invalid dimensions %d×%d×%d", m, n, k)
	}
	key := planKey{m, n, k}
	if err := e.mu.lock(ctx); err != nil {
		return nil, err
	}
	defer e.mu.unlock()
	if p, ok := e.plans.Get(key); ok {
		e.hits++
		return p, nil
	}
	inner, err := e.spec.Plan(algo.Config{Overlap: e.cfg.overlap, Network: e.cfg.network}, m, n, k, e.cfg.procs, e.cfg.memory)
	if err != nil {
		return nil, err
	}
	p := &Plan{inner: inner, eng: e}
	e.plans.Add(key, p)
	e.misses++
	return p, nil
}

// Exec multiplies a·b under the engine's options: it plans (or reuses
// the cached plan for) the shape, borrows a pooled executor, runs, and
// returns the product with its report. Cancelling ctx aborts the run at
// the next communication-round boundary — ranks parked in a receive
// are woken — and Exec returns ctx.Err().
//
// a and b are read in place for the duration of the call — every rank
// multiplies the panels it owns straight out of them, views with
// Stride > Cols included — and are never written; the caller must not
// write them until Exec returns. The product's storage is a pool loan
// the caller owns and may simply drop; its capacity is m·n words
// rounded up to a power of two.
func (e *Engine) Exec(ctx context.Context, a, b *Matrix) (*Matrix, *Report, error) {
	if e.closed.Load() {
		return nil, nil, ErrEngineClosed
	}
	if a.Cols != b.Rows {
		return nil, nil, fmt.Errorf("cosma: A is %d×%d but B is %d×%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	plan, err := e.Plan(ctx, a.Rows, b.Cols, a.Cols)
	if err != nil {
		return nil, nil, err
	}
	outs, reps, err := plan.run(ctx, []Pair{{a, b}})
	if err != nil {
		return nil, nil, err
	}
	return outs[0], reps[0], nil
}

// Pair is one multiplication of a batch.
type Pair struct {
	A, B *Matrix
}

// MultiplyBatch multiplies every pair under one shared plan — the
// dominant production pattern of repeated same-shape multiplications —
// reusing a single executor (machine and per-rank buffers) across the
// whole batch. All pairs must have the shape of the first. On error
// (including cancellation) it returns the results completed so far,
// with nil entries for the rest. Each product is a loan, as Exec's.
func (e *Engine) MultiplyBatch(ctx context.Context, pairs []Pair) ([]*Matrix, []*Report, error) {
	if e.closed.Load() {
		return nil, nil, ErrEngineClosed
	}
	if len(pairs) == 0 {
		return nil, nil, nil
	}
	first := pairs[0]
	if first.A.Cols != first.B.Rows {
		return nil, nil, fmt.Errorf("cosma: A is %d×%d but B is %d×%d",
			first.A.Rows, first.A.Cols, first.B.Rows, first.B.Cols)
	}
	m, n, k := first.A.Rows, first.B.Cols, first.A.Cols
	for i, p := range pairs {
		if p.A.Rows != m || p.A.Cols != k || p.B.Rows != k || p.B.Cols != n {
			return nil, nil, fmt.Errorf("cosma: batch pair %d is %d×%d·%d×%d, want %d×%d·%d×%d",
				i, p.A.Rows, p.A.Cols, p.B.Rows, p.B.Cols, m, k, k, n)
		}
	}
	plan, err := e.Plan(ctx, m, n, k)
	if err != nil {
		return nil, nil, err
	}
	outs, reps, err := plan.run(ctx, pairs)
	if err != nil {
		err = fmt.Errorf("cosma: batch pair %d: %w", len(outs), err)
	}
	return outs[:len(pairs)], reps[:len(pairs)], err
}

// multiProc reports whether the engine's ranks span several OS
// processes — which constrains verification and corruption retries (see
// WithVerification).
func (e *Engine) multiProc() bool {
	return e.wireMach != nil && len(e.wireMach.LocalRanks()) < e.cfg.procs
}

// CacheStats is a snapshot of the engine's plan-cache accounting.
type CacheStats struct {
	Hits   int64 // Plan calls served from the cache
	Misses int64 // Plan calls that fitted a new grid
	Len    int   // distinct shapes currently cached
	Cap    int   // cache capacity
}

// CacheStats reports plan-cache hits, misses and occupancy.
func (e *Engine) CacheStats() CacheStats {
	if err := e.mu.lock(context.Background()); err != nil {
		return CacheStats{}
	}
	defer e.mu.unlock()
	return CacheStats{Hits: e.hits, Misses: e.misses, Len: e.plans.Len(), Cap: e.plans.Cap()}
}
