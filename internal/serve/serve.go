// Package serve is the batching, backpressured serving front-end
// behind cmd/cosmad: a long-lived multiplication service wrapping the
// cosma Engine.
//
// Requests are admitted against a bounded global queue (beyond it they
// are shed immediately — the HTTP layer maps that to 429) and joined
// per shape: a request that finds its shape idle is executed at once,
// and whatever arrives while a batch executes forms the next
// Engine.MultiplyBatch, so no request waits for company that may never
// come and every request after a shape's first rides a cached plan and
// a pooled executor. Engines are sharded by shape hash: each shard owns
// its plan cache and executor pools, so a hot mixed workload never
// serializes behind one plan-cache mutex.
// Drain stops admission and waits for the queue to empty — the
// graceful-shutdown half of cosmad's SIGTERM handling.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cosma"
)

// ErrOverloaded is returned (and mapped to HTTP 429) when the bounded
// admission queue is full: shedding at the door keeps latency bounded
// for the requests already admitted.
var ErrOverloaded = errors.New("serve: overloaded — admission queue full")

// ErrDraining is returned for requests arriving after Drain began.
var ErrDraining = errors.New("serve: draining — not accepting new requests")

// ErrShardOpen is returned (mapped to 503 with a Retry-After of the
// breaker cooldown) when a shape's engine shard has its circuit breaker
// open and no fallback engine is configured: the shard failed
// repeatedly and is cooling off before a probe.
var ErrShardOpen = errors.New("serve: circuit open — engine shard temporarily disabled")

// Options configure a Server. The zero value is usable.
type Options struct {
	// Engine options applied to every shard (procs, memory, algorithm,
	// overlap, ...).
	Engine []cosma.Option
	// Shards is the number of engines requests are sharded over by
	// shape hash; 0 means 4. Each shard has its own plan cache and
	// executor pools.
	Shards int
	// QueueLimit bounds admitted-but-unfinished requests; beyond it
	// Multiply sheds with ErrOverloaded. 0 means 256.
	QueueLimit int
	// MaxBatch bounds the pairs per MultiplyBatch call; 0 means 32.
	MaxBatch int
	// MaxDim bounds each of m, n, k at admission; 0 means 8192. A
	// request beyond it is rejected (the HTTP layer maps that to 400),
	// which keeps one oversized multiplication from starving the mix.
	MaxDim int
	// Fallback, when non-nil, are engine options for a degraded
	// in-process engine that serves a shard's batches while that shard's
	// circuit breaker is open — e.g. a plain counting-transport engine
	// standing in for a wire-transport one whose mesh keeps failing.
	// Without it an open shard fails fast with ErrShardOpen.
	Fallback []cosma.Option
	// BreakerThreshold is how many consecutive batch failures open a
	// shard's circuit; 0 means 5, negative disables the breakers.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit dwells before
	// admitting a half-open probe batch; 0 means 5s.
	BreakerCooldown time.Duration
}

func (o Options) shards() int {
	if o.Shards < 1 {
		return 4
	}
	return o.Shards
}

func (o Options) queueLimit() int {
	if o.QueueLimit < 1 {
		return 256
	}
	return o.QueueLimit
}

func (o Options) maxBatch() int {
	if o.MaxBatch < 1 {
		return 32
	}
	return o.MaxBatch
}

func (o Options) maxDim() int {
	if o.MaxDim < 1 {
		return 8192
	}
	return o.MaxDim
}

func (o Options) breakerThreshold() int {
	if o.BreakerThreshold == 0 {
		return 5
	}
	return o.BreakerThreshold
}

func (o Options) breakerCooldown() time.Duration {
	if o.BreakerCooldown <= 0 {
		return 5 * time.Second
	}
	return o.BreakerCooldown
}

// Server is the coalescing multiplication service. Create one with
// New, serve requests through Multiply (or the HTTP handler), and
// shut down with Drain.
type Server struct {
	opts    Options
	engines []*cosma.Engine
	// fallback is the degraded engine batches run on while their
	// shard's breaker is open (Options.Fallback); nil fails fast.
	fallback *cosma.Engine
	// clock feeds the breakers; tests substitute a fake for
	// deterministic transition coverage.
	clock func() time.Time

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when queued drops or drain starts
	buckets  map[shapeKey]*bucket
	breakers []*breaker // per engine shard; nil when disabled
	queued   int        // admitted, not yet answered
	draining bool
	// stats holds the counters that change together with the fields
	// above; the four below stand alone and are only ever added to.
	stats Stats

	rejected, fallbackBatches, batchFailures, retries atomic.Int64
}

type shapeKey struct{ m, n, k int }

// bucket collects same-shape requests between flushes. pending and
// flushing are guarded by Server.mu; the flusher goroutine owns the
// batch it took out.
type bucket struct {
	key      shapeKey
	pending  []*request
	flushing bool
}

type request struct {
	a, b *cosma.Matrix
	// deadline is the caller's context deadline (zero when unbounded);
	// a batch whose members all carry one runs under the latest of
	// them, so an engine-side hang cannot outlive every waiter.
	deadline time.Time
	done     chan result
}

type result struct {
	c   *cosma.Matrix
	rep *cosma.Report
	err error
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	Requests   int64 `json:"requests"`  // admitted requests
	Shed       int64 `json:"shed"`      // rejected with ErrOverloaded
	Rejected   int64 `json:"rejected"`  // invalid or oversized requests
	Batches    int64 `json:"batches"`   // MultiplyBatch calls issued
	Batched    int64 `json:"batched"`   // pairs across all batches
	MaxBatch   int   `json:"max_batch"` // largest batch executed
	Queued     int   `json:"queued"`    // currently admitted, unanswered
	Draining   bool  `json:"draining"`
	PlanHits   int64 `json:"plan_hits"`   // summed over shards
	PlanMisses int64 `json:"plan_misses"` // summed over shards

	// ShedByShape breaks Shed down per problem shape ("m×n×k"), so a
	// single hot shape saturating the queue is visible as such.
	ShedByShape map[string]int64 `json:"shed_by_shape,omitempty"`

	// Retries counts engine-level re-executions observed across all
	// answered requests (report attempts beyond the first).
	Retries int64 `json:"retries"`

	// BreakerOpenShards counts engine shards whose circuit is not
	// closed (open or probing); FallbackBatches counts batches the
	// degraded fallback engine served while shards were open; and
	// BatchFailures counts batch executions that returned an error.
	BreakerOpenShards int   `json:"breaker_open_shards"`
	FallbackBatches   int64 `json:"fallback_batches"`
	BatchFailures     int64 `json:"batch_failures"`
}

// New builds a server: the engine shards are constructed eagerly so a
// misconfiguration surfaces here, not on the first request.
func New(opts Options) (*Server, error) {
	s := &Server{opts: opts, buckets: make(map[shapeKey]*bucket), clock: time.Now}
	s.stats.ShedByShape = make(map[string]int64)
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < opts.shards(); i++ {
		eng, err := cosma.NewEngine(opts.Engine...)
		if err != nil {
			return nil, err
		}
		s.engines = append(s.engines, eng)
		if opts.breakerThreshold() > 0 {
			s.breakers = append(s.breakers, &breaker{
				threshold: opts.breakerThreshold(),
				cooldown:  opts.breakerCooldown(),
			})
		}
	}
	if opts.Fallback != nil {
		eng, err := cosma.NewEngine(opts.Fallback...)
		if err != nil {
			return nil, fmt.Errorf("building fallback engine: %w", err)
		}
		s.fallback = eng
	}
	return s, nil
}

// Engines returns the number of engine shards.
func (s *Server) Engines() int { return len(s.engines) }

func (k shapeKey) shard(n int) int {
	// FNV-1a over the three dims: cheap, stable, spreads the small
	// serving mixes evenly.
	h := uint64(14695981039346656037)
	for _, d := range [3]int{k.m, k.n, k.k} {
		h = (h ^ uint64(d)) * 1099511628211
	}
	return int(h % uint64(n))
}

// Multiply answers one request: admit (or shed), join the shape's
// batch bucket, and wait for the bucket flush that carries it. The
// context covers only the caller's wait — an abandoned request's slot
// is still executed and released by its batch.
func (s *Server) Multiply(ctx context.Context, a, b *cosma.Matrix) (*cosma.Matrix, *cosma.Report, error) {
	if a == nil || b == nil {
		return nil, nil, s.reject(fmt.Errorf("serve: nil matrix"))
	}
	if a.Cols != b.Rows {
		return nil, nil, s.reject(fmt.Errorf("serve: A is %d×%d but B is %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	key := shapeKey{m: a.Rows, n: b.Cols, k: a.Cols}
	if max := s.opts.maxDim(); key.m < 1 || key.n < 1 || key.k < 1 || key.m > max || key.n > max || key.k > max {
		return nil, nil, s.reject(fmt.Errorf("serve: dimensions %d×%d×%d outside [1, %d]", key.m, key.n, key.k, s.opts.maxDim()))
	}

	req := &request{a: a, b: b, done: make(chan result, 1)}
	if d, ok := ctx.Deadline(); ok {
		req.deadline = d
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, nil, ErrDraining
	}
	if s.queued >= s.opts.queueLimit() {
		s.stats.Shed++
		s.stats.ShedByShape[fmt.Sprintf("%d×%d×%d", key.m, key.n, key.k)]++
		s.mu.Unlock()
		return nil, nil, ErrOverloaded
	}
	s.queued++
	s.stats.Requests++
	bk := s.buckets[key]
	if bk == nil {
		bk = &bucket{key: key}
		s.buckets[key] = bk
	}
	bk.pending = append(bk.pending, req)
	if !bk.flushing {
		bk.flushing = true
		go s.flushLoop(bk)
	}
	s.mu.Unlock()

	select {
	case res := <-req.done:
		return res.c, res.rep, res.err
	case <-ctx.Done():
		// The batch still runs the pair; its result is dropped into the
		// buffered channel and garbage-collected.
		return nil, nil, ctx.Err()
	}
}

// rejection marks an error as the request's own fault — bad shape, bad
// header, oversize — which is what separates a 400 from an engine
// failure.
type rejection struct{ error }

func (r rejection) Unwrap() error { return r.error }

func (s *Server) reject(err error) error {
	s.rejected.Add(1)
	return rejection{err}
}

// flushLoop drains one bucket: take up to MaxBatch pending requests,
// execute them as one batch, repeat until the bucket is empty. It never
// waits: the request that started it is executed at once, and a batch
// is whatever arrived while the previous one executed.
func (s *Server) flushLoop(bk *bucket) {
	for {
		s.mu.Lock()
		batch := bk.pending
		if len(batch) == 0 {
			bk.flushing = false
			s.mu.Unlock()
			return
		}
		if max := s.opts.maxBatch(); len(batch) > max {
			bk.pending = batch[max:]
			batch = batch[:max]
		} else {
			bk.pending = nil
		}
		s.stats.Batches++
		s.stats.Batched += int64(len(batch))
		if len(batch) > s.stats.MaxBatch {
			s.stats.MaxBatch = len(batch)
		}
		s.mu.Unlock()

		s.execute(bk.key, batch)
	}
}

// execute runs one batch on the shape's engine shard — or, while the
// shard's circuit breaker is open, on the degraded fallback engine —
// and fans the results back out. The batch context is the server's,
// not any one caller's (a single abandoned request must not cancel its
// batchmates), except that when every member carries a deadline the
// batch runs under the latest of them: once no caller is still
// waiting, an engine-side hang is cancelled rather than ridden out.
func (s *Server) execute(key shapeKey, batch []*request) {
	pairs := make([]cosma.Pair, len(batch))
	for i, req := range batch {
		pairs[i] = cosma.Pair{A: req.a, B: req.b}
	}
	shard := key.shard(len(s.engines))
	eng := s.engines[shard]

	// Route through the shard's breaker.
	var br *breaker
	probe, degraded := false, false
	if s.breakers != nil {
		s.mu.Lock()
		br = s.breakers[shard]
		var primary bool
		primary, probe = br.route(s.clock())
		s.mu.Unlock()
		if !primary {
			if s.fallback == nil {
				s.finish(batch, nil, nil, ErrShardOpen)
				return
			}
			eng, degraded = s.fallback, true
		}
	}

	ctx := context.Background()
	if d, ok := batchDeadline(batch); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, d)
		defer cancel()
	}
	outs, reps, err := eng.MultiplyBatch(ctx, pairs)

	if br != nil && !degraded {
		// Deadline expiry is the callers' doing, not shard sickness —
		// don't let it move the circuit.
		failed := err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
		s.mu.Lock()
		br.onResult(s.clock(), probe, failed)
		s.mu.Unlock()
	}
	if degraded {
		s.fallbackBatches.Add(1)
	}
	s.finish(batch, outs, reps, err)
}

// batchDeadline returns the latest member deadline when every member
// has one; a single unbounded member keeps the batch unbounded.
func batchDeadline(batch []*request) (time.Time, bool) {
	var latest time.Time
	for _, req := range batch {
		if req.deadline.IsZero() {
			return time.Time{}, false
		}
		if req.deadline.After(latest) {
			latest = req.deadline
		}
	}
	return latest, len(batch) > 0
}

// finish fans one executed (or shed) batch's results back to the
// waiting callers, counts their retries, and releases the queue slots.
// Every counter moves before the answer it describes goes out, so a
// caller that reads Stats after its answer finds itself counted.
func (s *Server) finish(batch []*request, outs []*cosma.Matrix, reps []*cosma.Report, err error) {
	if err != nil {
		s.batchFailures.Add(1)
	}
	for i, req := range batch {
		res := result{err: err}
		if i < len(outs) && outs[i] != nil {
			res = result{c: outs[i], rep: reps[i]}
			if n := res.rep.Attempts - 1; n > 0 {
				s.retries.Add(int64(n))
			}
		}
		req.done <- res
	}
	s.mu.Lock()
	s.queued -= len(batch)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Stats returns a snapshot of the server's counters, including the
// plan-cache totals summed over the engine shards.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := s.stats
	st.Queued = s.queued
	st.Draining = s.draining
	if len(s.stats.ShedByShape) > 0 {
		st.ShedByShape = make(map[string]int64, len(s.stats.ShedByShape))
		for k, v := range s.stats.ShedByShape {
			st.ShedByShape[k] = v
		}
	} else {
		st.ShedByShape = nil
	}
	for _, br := range s.breakers {
		if br.state != breakerClosed {
			st.BreakerOpenShards++
		}
	}
	s.mu.Unlock()
	st.Rejected = s.rejected.Load()
	st.FallbackBatches = s.fallbackBatches.Load()
	st.BatchFailures = s.batchFailures.Load()
	st.Retries = s.retries.Load()
	for _, eng := range s.engines {
		cs := eng.CacheStats()
		st.PlanHits += cs.Hits
		st.PlanMisses += cs.Misses
	}
	return st
}

// Drain stops admission (new requests get ErrDraining) and waits until
// every admitted request has been answered or ctx expires, returning
// ctx.Err() in the latter case with the stragglers still running.
// Idempotent; concurrent calls all wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.cond.Broadcast()

	// A deadline watcher breaks the cond wait — sync.Cond has no
	// context support of its own.
	stop := context.AfterFunc(ctx, s.cond.Broadcast)
	defer stop()

	s.mu.Lock()
	defer s.mu.Unlock()
	for s.queued > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.cond.Wait()
	}
	return nil
}
