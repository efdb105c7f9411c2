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
//	       [-maxdim 8192]
//	       [-retry 0] [-verify] [-drain-timeout 30s]
//
// Endpoints: POST /v1/multiply (JSON in/out; honors X-Cosma-Deadline-Ms),
// GET /v1/stats, GET /healthz (503 while draining).
//
// Fault tolerance lives in the engine: -retry re-runs transiently-failed
// executions and -verify checks every product served with ABFT
// checksums. A batch that still fails answers its own requests (400 for
// a shape the algorithm cannot schedule, 500 for an engine failure) and
// nothing else.
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
	retry := flag.Int("retry", 0, "engine attempts per execution, the first included (0 = no re-runs)")
	verify := flag.Bool("verify", false, "ABFT-verify every product (cosma.WithVerification)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")
	flag.Parse()

	engineOpts := []cosma.Option{
		cosma.WithProcs(*p), cosma.WithMemory(*s), cosma.WithAlgorithm(*algoName),
		cosma.WithVerification(*verify),
	}
	if *retry != 0 {
		engineOpts = append(engineOpts, cosma.WithRetry(*retry))
	}
	srv, err := serve.New(serve.Options{
		Engine:     engineOpts,
		Shards:     *shards,
		QueueLimit: *queue,
		MaxBatch:   *batch,
		MaxDim:     *maxDim,
	})
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
	log.Printf("served %d requests in %d batches (max batch %d), shed %d; plan cache %d hits / %d misses; %d retries, %d failed batches",
		st.Requests, st.Batches, st.MaxBatch, st.Shed, st.PlanHits, st.PlanMisses, st.Retries, st.BatchFailures)
}
