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
// Multiply's operands stay the caller's. The HTTP handler decodes into
// machine pool buffers and hands them to the server: their batch
// releases them once MultiplyBatch returns, waited for or abandoned.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cosma"
	"cosma/internal/machine"
)

// ErrOverloaded is returned (and mapped to HTTP 429) when the bounded
// admission queue is full: shedding at the door keeps latency bounded
// for the requests already admitted.
var ErrOverloaded = errors.New("serve: overloaded — admission queue full")

// ErrDraining is returned for requests arriving after Drain began.
var ErrDraining = errors.New("serve: draining — not accepting new requests")

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
}

func orDefault(v, def int) int {
	if v < 1 {
		return def
	}
	return v
}

// Server is the coalescing multiplication service. Create one with
// New, serve requests through Multiply (or the HTTP handler), and
// shut down with Drain. A failed batch answers its own requests and
// nothing else: recovery from a transient fault is the engine's
// (cosma.WithRetry), not the server's.
type Server struct {
	opts    Options // every default filled in by New
	engines []*cosma.Engine

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when queued drops or drain starts
	buckets  map[shapeKey]*bucket
	queued   int // admitted, not yet answered
	draining bool
	// stats holds the counters that change together with the fields
	// above; the three below stand alone and are only ever added to.
	stats Stats

	rejected, batchFailures, retries atomic.Int64
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
	owned    bool // a and b are the server's to release (HTTP requests)
}

// release returns an owned request's operands to the machine pool.
func (req *request) release() {
	if req.owned {
		machine.Release(req.a.Data)
		machine.Release(req.b.Data)
	}
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
	Rejected   int64 `json:"rejected"`  // invalid, oversized or unschedulable requests
	Batches    int64 `json:"batches"`   // MultiplyBatch calls issued
	Batched    int64 `json:"batched"`   // pairs across all batches
	MaxBatch   int   `json:"max_batch"` // largest batch executed
	Queued     int   `json:"queued"`    // currently admitted, unanswered
	Draining   bool  `json:"draining"`
	PlanHits   int64 `json:"plan_hits"`   // summed over shards
	PlanMisses int64 `json:"plan_misses"` // summed over shards

	// Retries counts engine-level re-executions observed across all
	// answered requests (report attempts beyond the first).
	Retries int64 `json:"retries"`

	// BatchFailures counts batch executions that failed in the engine;
	// a batch refused for its shape counts its requests under Rejected.
	BatchFailures int64 `json:"batch_failures"`
}

// New builds a server: the engine shards are constructed eagerly so a
// misconfiguration surfaces here, not on the first request.
func New(opts Options) (*Server, error) {
	opts.Shards = orDefault(opts.Shards, 4)
	opts.QueueLimit = orDefault(opts.QueueLimit, 256)
	opts.MaxBatch = orDefault(opts.MaxBatch, 32)
	opts.MaxDim = orDefault(opts.MaxDim, 8192)
	s := &Server{opts: opts, buckets: make(map[shapeKey]*bucket)}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < opts.Shards; i++ {
		eng, err := cosma.NewEngine(opts.Engine...)
		if err != nil {
			return nil, err
		}
		s.engines = append(s.engines, eng)
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
// is still executed and released by its batch. a and b stay the
// caller's: the server only reads them, and never after its batch.
func (s *Server) Multiply(ctx context.Context, a, b *cosma.Matrix) (*cosma.Matrix, *cosma.Report, error) {
	return s.multiply(ctx, &request{a: a, b: b})
}

// multiply is Multiply for a request that may own its operands: one
// refused at the door releases them here, an admitted one in its batch.
func (s *Server) multiply(ctx context.Context, req *request) (*cosma.Matrix, *cosma.Report, error) {
	if err := s.admit(ctx, req); err != nil {
		req.release()
		return nil, nil, err
	}
	select {
	case res := <-req.done:
		return res.c, res.rep, res.err
	case <-ctx.Done():
		// The batch still runs the pair; its result is dropped into the
		// buffered channel and garbage-collected.
		return nil, nil, ctx.Err()
	}
}

// admit checks req's shape and queues it on its shape's bucket, or
// says why not.
func (s *Server) admit(ctx context.Context, req *request) error {
	a, b := req.a, req.b
	if a == nil || b == nil {
		return s.reject(fmt.Errorf("serve: nil matrix"))
	}
	if a.Cols != b.Rows {
		return s.reject(fmt.Errorf("serve: A is %d×%d but B is %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	key := shapeKey{m: a.Rows, n: b.Cols, k: a.Cols}
	if max := s.opts.MaxDim; key.m < 1 || key.n < 1 || key.k < 1 || key.m > max || key.n > max || key.k > max {
		return s.reject(fmt.Errorf("serve: dimensions %d×%d×%d outside [1, %d]", key.m, key.n, key.k, s.opts.MaxDim))
	}

	req.done = make(chan result, 1)
	if d, ok := ctx.Deadline(); ok {
		req.deadline = d
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	if s.queued >= s.opts.QueueLimit {
		s.stats.Shed++
		return ErrOverloaded
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
	return nil
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
		if max := s.opts.MaxBatch; len(batch) > max {
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

// execute runs one batch on the shape's engine shard and fans the
// results back out. The batch context is the server's, not any one
// caller's (a single abandoned request must not cancel its batchmates),
// except that when every member carries a deadline the batch runs under
// the latest of them: once no caller is still waiting, an engine-side
// hang is cancelled rather than ridden out.
func (s *Server) execute(key shapeKey, batch []*request) {
	pairs := make([]cosma.Pair, len(batch))
	for i, req := range batch {
		pairs[i] = cosma.Pair{A: req.a, B: req.b}
	}
	ctx := context.Background()
	if d, ok := batchDeadline(batch); ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, d)
		defer cancel()
	}
	outs, reps, err := s.engines[key.shard(len(s.engines))].MultiplyBatch(ctx, pairs)
	// Every rank, retry and check is done with the operands; they go
	// back before the answers so a caller's next request reuses them.
	for _, req := range batch {
		req.release()
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

// finish fans one executed batch's results back to the waiting
// callers, counts their retries, and releases the queue slots. A shape
// the algorithm cannot schedule is the requests' fault (400), so they
// count as rejected, not as an engine failure. Every counter moves
// before the answer it describes goes out, so a caller that reads Stats
// after its answer finds itself counted.
func (s *Server) finish(batch []*request, outs []*cosma.Matrix, reps []*cosma.Report, err error) {
	switch {
	case errors.Is(err, cosma.ErrUnsupportedShape):
		s.rejected.Add(int64(len(batch)))
	case err != nil:
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
	s.mu.Unlock()
	st.Rejected = s.rejected.Load()
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
