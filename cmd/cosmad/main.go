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
//	       [-maxdim 8192] [-threads n] [-tune] [-overlap]
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
//
// Load generator (client mode, against a running cosmad):
//
//	cosmad -loadgen http://localhost:8642 [-duration 3s] [-workers 8]
//	       [-loadgen-seed 1] [-loadgen-shapes 12] [-loadgen-zipf 1.1]
//	       [-loadgen-mindim 16] [-loadgen-maxdim 384]
//
// drives a seeded randomized workload (internal/workload): a catalog
// of -loadgen-shapes shapes spanning the four §8 aspect classes,
// drawn with Zipfian popularity so hot shapes hammer the plan cache
// while the tail forces misses. -workers concurrent clients report
// request throughput, latency percentiles, and how many requests were
// shed or failed. Results are verified against a locally computed
// product for a sample of requests.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cosma"
	"cosma/internal/serve"
	"cosma/internal/workload"
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
	tune := flag.Bool("tune", false, "autotune rank-kernel block sizes")
	overlap := flag.Bool("overlap", false, "pipeline the round loops (§7.3)")
	retry := flag.Int("retry", 0, "engine retry attempts per execution (0 = no retries)")
	verify := flag.Bool("verify", false, "ABFT-verify every product (cosma.WithVerification)")
	fallback := flag.Bool("fallback", false, "serve open-circuit shards from a degraded in-process engine")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive batch failures that open a shard's circuit (<0 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "open-circuit dwell before a probe")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown bound")

	loadgen := flag.String("loadgen", "", "client mode: drive load at this cosmad base URL instead of serving")
	duration := flag.Duration("duration", 3*time.Second, "loadgen: how long to drive")
	workers := flag.Int("workers", 8, "loadgen: concurrent client goroutines")
	seed := flag.Uint64("loadgen-seed", 1, "loadgen: workload generator seed")
	lgShapes := flag.Int("loadgen-shapes", 12, "loadgen: catalog size (distinct shapes)")
	lgZipf := flag.Float64("loadgen-zipf", 1.1, "loadgen: Zipf popularity exponent")
	lgMinDim := flag.Int("loadgen-mindim", 16, "loadgen: catalog minimum dimension")
	lgMaxDim := flag.Int("loadgen-maxdim", 384, "loadgen: catalog maximum dimension")
	flag.Parse()

	if *loadgen != "" {
		cfg := workload.GenConfig{
			Seed: *seed, Shapes: *lgShapes, ZipfS: *lgZipf,
			MinDim: *lgMinDim, MaxDim: *lgMaxDim,
		}
		if err := runLoadgen(*loadgen, *duration, *workers, cfg); err != nil {
			log.Fatal(err)
		}
		return
	}

	engineOpts := []cosma.Option{
		cosma.WithProcs(*p), cosma.WithMemory(*s), cosma.WithAlgorithm(*algoName),
		cosma.WithKernelThreads(*threads), cosma.WithAutotune(*tune), cosma.WithOverlap(*overlap),
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

// runLoadgen drives a seeded Zipfian request stream at a cosmad
// instance and prints throughput and latency percentiles. Each worker
// draws shapes from the generator's catalog with Zipf popularity
// (worker w seeds its own RNG from cfg.Seed+w, so runs are
// reproducible yet workers are decorrelated).
func runLoadgen(base string, duration time.Duration, workers int, cfg workload.GenConfig) error {
	gen := workload.NewGenerator(cfg)
	dims := gen.Catalog()

	// Pre-build one request body per shape; payload content doesn't
	// change the serving path, so reusing bodies keeps the generator
	// cheap enough to saturate the server.
	bodies := make([][]byte, len(dims))
	wants := make([][]float64, len(dims))
	for i, d := range dims {
		a := cosma.RandomMatrix(d.M, d.K, int64(2*i+1))
		b := cosma.RandomMatrix(d.K, d.N, int64(2*i+2))
		body, err := json.Marshal(serve.MultiplyRequest{M: d.M, N: d.N, K: d.K, A: a.Data, B: b.Data})
		if err != nil {
			return err
		}
		bodies[i] = body
		wants[i] = naive(a, b)
	}

	var (
		ok, shed, failed atomic.Int64
		mu               sync.Mutex
		lats             []time.Duration
	)
	client := &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := workload.NewRNG(cfg.Seed + uint64(w))
			zipf := workload.NewZipf(len(dims), cfg.ZipfS)
			for i := w; time.Now().Before(deadline); i++ {
				shape := zipf.Sample(rng)
				start := time.Now()
				status, c, err := postMultiply(client, base, bodies[shape])
				lat := time.Since(start)
				switch {
				case err != nil || status >= 500:
					failed.Add(1)
				case status == http.StatusTooManyRequests:
					shed.Add(1)
				case status != http.StatusOK:
					failed.Add(1)
				default:
					// Spot-check correctness on a sample: the naive
					// product differs from the distributed one only by
					// float association, so compare with tolerance.
					if i%64 == 0 && !approxEqual(c, wants[shape]) {
						failed.Add(1)
						break
					}
					ok.Add(1)
					mu.Lock()
					lats = append(lats, lat)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()

	total := ok.Load() + shed.Load() + failed.Load()
	fmt.Printf("loadgen: %d requests in %v from %d workers over %d shapes\n", total, duration, workers, len(dims))
	fmt.Printf("  ok %d (%.0f req/s)   shed %d   failed %d\n",
		ok.Load(), float64(ok.Load())/duration.Seconds(), shed.Load(), failed.Load())
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		fmt.Printf("  latency p50 %v   p90 %v   p99 %v   max %v\n",
			pct(lats, 50), pct(lats, 90), pct(lats, 99), lats[len(lats)-1])
	}
	if failed.Load() > 0 {
		return fmt.Errorf("%d requests failed", failed.Load())
	}
	return nil
}

func postMultiply(client *http.Client, base string, body []byte) (status int, c []float64, err error) {
	resp, err := client.Post(base+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, nil
	}
	var out serve.MultiplyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, out.C, nil
}

// naive is the reference product for the loadgen's spot checks.
func naive(a, b *cosma.Matrix) []float64 {
	c := make([]float64, a.Rows*b.Cols)
	for i := 0; i < a.Rows; i++ {
		for l := 0; l < a.Cols; l++ {
			av := a.Data[i*a.Stride+l]
			for j := 0; j < b.Cols; j++ {
				c[i*b.Cols+j] += av * b.Data[l*b.Stride+j]
			}
		}
	}
	return c
}

func approxEqual(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		d := got[i] - want[i]
		if d < 0 {
			d = -d
		}
		if d > 1e-9*(1+abs(want[i])) {
			return false
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func pct(sorted []time.Duration, p int) time.Duration {
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
