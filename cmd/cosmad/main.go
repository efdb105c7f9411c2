// Command cosmad serves matrix multiplications over HTTP: a long-lived
// engine front-end that executes a request at once when its shape is
// idle and batches the same-shape requests that arrive meanwhile, sheds
// load beyond a bounded admission queue (429), and drains gracefully on
// SIGTERM/SIGINT.
//
// Server:
//
//	cosmad [-addr :8642] [-p 4] [-S 1048576] [-algo cosma]
//	       [-shards 4] [-queue 256] [-batch 32]
//	       [-maxdim 8192] [-threads n] [-overlap]
//	       [-retry 0] [-verify] [-fallback]
//	       [-breaker-threshold 5] [-breaker-cooldown 5s]
//	       [-drain-timeout 30s]
//
// Endpoints: POST /v1/multiply (JSON in/out; honors X-Cosma-Deadline-Ms),
// GET /v1/stats, GET /healthz (503 while draining).
//
// Fault tolerance: -retry re-runs transiently-failed executions inside
// the engine, -verify checks every product with ABFT checksums, and a
// per-shard circuit breaker opens after -breaker-threshold consecutive
// batch failures — while open, batches degrade to a plain in-process
// fallback engine when -fallback is set, else shed with 503 until the
// -breaker-cooldown probe succeeds.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cosma"
	"cosma/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cosmad: ")

	addr := flag.String("addr", ":8642", "listen address")
	p := flag.Int("p", 4, "simulated processors per multiplication")
	s := flag.Int("S", 1<<20, "local memory per processor in words")
	algoName := flag.String("algo", "cosma", "algorithm registry name or alias")
	shards := flag.Int("shards", 4, "engine shards (independent plan caches)")
	queue := flag.Int("queue", 256, "admission queue bound before 429 shedding")
	batch := flag.Int("batch", 32, "max pairs per batched execution")
	maxDim := flag.Int("maxdim", 8192, "admission bound on each of m, n, k")
	threads := flag.Int("threads", 0, "per-rank GEMM kernel workers (0 = GOMAXPROCS-aware)")
	overlap := flag.Bool("overlap", false, "pipeline the round loops (§7.3)")
	retry := flag.Int("retry", 0, "engine retry attempts per execution (0 = no retries)")
	verify := flag.Bool("verify", false, "ABFT-verify every product (cosma.WithVerification)")
	fallback := flag.Bool("fallback", false, "serve open-circuit shards from a degraded in-process engine")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive batch failures that open a shard's circuit (<0 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "open-circuit dwell before a probe")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
	flag.Parse()

	engineOpts := []cosma.Option{
		cosma.WithProcs(*p), cosma.WithMemory(*s), cosma.WithAlgorithm(*algoName),
		cosma.WithKernelThreads(*threads), cosma.WithOverlap(*overlap),
		cosma.WithVerification(*verify),
	}
	if *retry > 0 {
		engineOpts = append(engineOpts, cosma.WithRetry(cosma.RetryPolicy{MaxAttempts: *retry}))
	}
	sopts := serve.Options{
		Engine:           engineOpts,
		Shards:           *shards,
		QueueLimit:       *queue,
		MaxBatch:         *batch,
		MaxDim:           *maxDim,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	}
	if *fallback {
		// The degraded stand-in: same shape limits, plain counting
		// transport, no retries — it exists to keep answering while a
		// sick shard cools off.
		sopts.Fallback = []cosma.Option{
			cosma.WithProcs(*p), cosma.WithMemory(*s), cosma.WithAlgorithm(*algoName),
			cosma.WithKernelThreads(*threads),
		}
	}
	srv, err := serve.New(sopts)
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: serve.Handler(srv)}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("serving %s multiplications on %s (p=%d, S=%d, %d shards, queue %d, batch %d)",
		*algoName, *addr, *p, *s, *shards, *queue, *batch)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		log.Fatal(err)
	case sig := <-sigc:
		log.Printf("%v: draining (bound %v)", sig, *drainTimeout)
	}

	// Graceful shutdown: stop admitting (new requests see 503), finish
	// what's queued, then close the listener.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	st := srv.Stats()
	log.Printf("served %d requests in %d batches (max batch %d), shed %d; plan cache %d hits / %d misses; %d retries, %d fallback batches",
		st.Requests, st.Batches, st.MaxBatch, st.Shed, st.PlanHits, st.PlanMisses, st.Retries, st.FallbackBatches)
}
