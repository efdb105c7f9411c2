package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"cosma"
	"cosma/internal/serve"
	"cosma/internal/workload"
)

// mixInputs is everything the serving side is fed: per catalog shape
// the operand pair, the JSON request body (full-precision seeded
// floats, so the codec pays what a real caller makes it pay), and the
// product a direct Engine.Exec of the pair returns.
type mixInputs struct {
	mix    serveMix
	shapes []shape
	a, b   []*cosma.Matrix
	ref    []*cosma.Matrix
	bodies [][]byte
	zipf   *workload.Zipf
	direct *cosma.Engine // warm engine under the server's engine options
}

func newMixInputs(ctx context.Context, mix serveMix, seed int64) (*mixInputs, error) {
	in := &mixInputs{mix: mix, zipf: workload.NewZipf(mix.shapes, mix.zipfS)}
	var err error
	if in.direct, err = cosma.NewEngine(mix.engineOptions()...); err != nil {
		return nil, err
	}
	for i, d := range mix.catalog() {
		sh := mix.shapeOf(d)
		a, b := sh.inputs(seed + int64(i))
		body, err := json.Marshal(serve.MultiplyRequest{M: sh.m, N: sh.n, K: sh.k, A: a.Data, B: b.Data})
		if err != nil {
			return nil, err
		}
		c, _, err := in.direct.Exec(ctx, a, b)
		if err != nil {
			return nil, err
		}
		if err := cosma.VerifyProduct(a, b, c); err != nil {
			return nil, err
		}
		in.shapes = append(in.shapes, sh)
		in.a, in.b, in.ref = append(in.a, a), append(in.b, b), append(in.ref, c)
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

func (sm serveMix) engineOptions() []cosma.Option {
	return shape{p: sm.procs, s: sm.memory()}.engineOptions()
}

// draws returns the Zipf shape sequence of one caller.
func (in *mixInputs) draws(seed int64, caller int) func() int {
	rng := workload.NewRNG(uint64(seed)<<8 + uint64(caller) + 1)
	return func() int { return in.zipf.Sample(rng) }
}

// cosmad is the serving stack of cmd/cosmad inside this process: a
// serve.Server behind serve.Handler on a loopback TCP listener, and one
// keep-alive HTTP client for all callers.
type cosmad struct {
	srv     *serve.Server
	handler http.Handler
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client
}

func startCosmad(mix serveMix) (*cosmad, error) {
	srv, err := serve.New(serve.Options{Engine: mix.engineOptions(), Shards: mix.shards, MaxDim: mix.maxDim})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &cosmad{
		srv:     srv,
		handler: serve.Handler(srv),
		served:  make(chan error, 1),
		url:     "http://" + ln.Addr().String() + "/v1/multiply",
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: mix.clients, MaxConnsPerHost: mix.clients,
		}},
	}
	c.hs = &http.Server{Handler: c.handler}
	go func() { c.served <- c.hs.Serve(ln) }()
	return c, nil
}

// stop shuts the listener down, drains the server and waits for the
// serving goroutine.
func (c *cosmad) stop(ctx context.Context) error {
	c.client.CloseIdleConnections()
	if err := c.hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-c.served; err != http.ErrServerClosed {
		return err
	}
	return c.srv.Drain(ctx)
}

// post sends one request body and reads the whole answer. With want set
// the answer is decoded and compared bit for bit.
func (c *cosmad) post(body []byte, want *cosma.Matrix) (respBytes int64, err error) {
	resp, err := c.client.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("status %s", resp.Status)
	}
	if want == nil {
		return io.Copy(io.Discard, resp.Body)
	}
	counted := &countingReader{r: resp.Body}
	return counted.n, checkResponse(counted, want)
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func checkResponse(r io.Reader, want *cosma.Matrix) error {
	var got serve.MultiplyResponse
	if err := json.NewDecoder(r).Decode(&got); err != nil {
		return err
	}
	if got.M != want.Rows || got.N != want.Cols || len(got.C) != want.Rows*want.Cols ||
		!sameBits(cosma.MatrixFromSlice(got.M, got.N, got.C), want) {
		return fmt.Errorf("response differs from a direct Engine.Exec of the same pair")
	}
	return nil
}

// setup times serve.New → listener → every catalog shape answered (and
// checked) once over HTTP on a fresh server, and leaves it running.
func (in *mixInputs) setup(ctx context.Context, tr *tracer) (c *cosmad, seconds float64, err error) {
	id := tr.begin(0, 0, "setup")
	start := time.Now()
	if c, err = startCosmad(in.mix); err != nil {
		return nil, 0, err
	}
	for j, body := range in.bodies {
		if _, err := c.post(body, in.ref[j]); err != nil {
			c.stop(ctx)
			return nil, 0, fmt.Errorf("shape %d: %w", j, err)
		}
	}
	seconds = time.Since(start).Seconds()
	tr.end(id)
	return c, seconds, nil
}

// requests returns the operation "one HTTP request of the mix" for the
// mix's closed-loop callers: each posts its next Zipf-drawn shape.
// Every httpCheckEvery-th answer of a caller is decoded and compared
// with the direct product; the others are read and dropped. server is
// asked on every call, so a window may swap servers between segments.
func (in *mixInputs) requests(seed int64, server func() *cosmad) operation {
	type caller struct {
		next func() int
		n    int
	}
	callers := make([]caller, in.mix.clients)
	for g := range callers {
		callers[g].next = in.draws(seed, g)
	}
	return func(g int) (func() error, error) {
		c := &callers[g]
		i := c.next()
		var want *cosma.Matrix
		if c.n++; c.n%httpCheckEvery == 0 {
			want = in.ref[i]
		}
		_, err := server().post(in.bodies[i], want)
		return nil, err
	}
}

// ladderBlock is how many requests one rung of the serving ladder runs
// before the next rung takes its turn.
const ladderBlock = 25

// rung is one level of the serving ladder: the same shape sequence, one
// caller, entering the stack one layer lower each time.
type rung struct {
	name string
	call func(i int) error
	ms   []float64
}

// ladder times one caller's sequence at four depths — real HTTP,
// Handler.ServeHTTP on a recorder, Server.Multiply, Engine.Exec — so the
// self time of each serving layer is the difference of adjacent rungs.
// The four rungs together run for dur.
func (c *cosmad) ladder(ctx context.Context, tr *tracer, in *mixInputs, seed int64, dur time.Duration, out measured) (total tally) {
	var reqBytes, respBytes float64
	rungs := []*rung{
		{name: "http", call: func(i int) error {
			n, err := c.post(in.bodies[i], nil)
			reqBytes += float64(len(in.bodies[i]))
			respBytes += float64(n)
			return err
		}},
		{name: "Handler.ServeHTTP", call: func(i int) error {
			var rec discardResponse
			c.handler.ServeHTTP(&rec, httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(in.bodies[i])))
			if rec.status != 0 && rec.status != http.StatusOK {
				return fmt.Errorf("status %d", rec.status)
			}
			return nil
		}},
		{name: "Server.Multiply", call: func(i int) error {
			got, _, err := c.srv.Multiply(ctx, in.a[i], in.b[i])
			if err == nil && !sameBits(got, in.ref[i]) {
				err = fmt.Errorf("wrong product")
			}
			return err
		}},
		{name: "Engine.Exec", call: func(i int) error {
			got, _, err := in.direct.Exec(ctx, in.a[i], in.b[i])
			if err == nil && !sameBits(got, in.ref[i]) {
				err = fmt.Errorf("wrong product")
			}
			return err
		}},
	}
	// The rungs take turns in blocks of ladderBlock requests, so that a
	// slow stretch of the box lands on all four alike, while inside a
	// block requests follow each other as one caller's would (the batch
	// window's wait depends on what the previous request was).
	next := in.draws(seed, in.mix.clients)
	block := make([]int, ladderBlock)
	start := time.Now()
	for total.attempted == 0 || time.Since(start) < dur {
		for k := range block {
			block[k] = next()
		}
		for _, r := range rungs {
			for _, i := range block {
				total.attempted++
				total.failed += r.time(tr, i)
			}
		}
	}
	httpMs, handlerMs, multiplyMs, execMs := median(rungs[0].ms), median(rungs[1].ms), median(rungs[2].ms), median(rungs[3].ms)
	n := float64(len(rungs[0].ms))
	out["serve.http_p50_ms"] = httpMs
	out["serve.handler_p50_ms"] = handlerMs
	out["serve.multiply_p50_ms"] = multiplyMs
	out["serve.exec_p50_ms"] = execMs
	out["serve.net_ms"] = httpMs - handlerMs
	out["serve.codec_ms"] = handlerMs - multiplyMs
	out["serve.queue_window_ms"] = multiplyMs - execMs
	out["serve.codec_mb_per_s"] = (reqBytes + respBytes) / n / 1e6 / ((handlerMs - multiplyMs) / 1e3)
	out["serve.req_kb_mean"] = reqBytes / n / 1e3
	out["serve.resp_kb_mean"] = respBytes / n / 1e3
	out["serve.over_direct"] = sum(rungs[0].ms) / sum(rungs[3].ms)
	return total
}

// discardResponse is the ResponseWriter of the handler rung: it drops
// the encoded answer, so the rung pays for the codec and not for a
// buffer the real connection never holds.
type discardResponse struct {
	header http.Header
	status int
}

func (d *discardResponse) Header() http.Header {
	if d.header == nil {
		d.header = http.Header{}
	}
	return d.header
}
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(status int)      { d.status = status }

func (r *rung) time(tr *tracer, i int) (failed int) {
	id := tr.begin(0, 0, r.name)
	t := time.Now()
	err := r.call(i)
	r.ms = append(r.ms, millis(time.Since(t)))
	tr.end(id)
	if err != nil {
		return 1
	}
	return 0
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// burstCallers is how many goroutines the burst puts on Server.Multiply
// at once: the default MaxBatch, so one full batch can form.
const burstCallers = 32

// burst drives Server.Multiply with the hottest shape from burstCallers
// goroutines, no sockets, so batch coalescing is exercised without more
// connections than the box has cores.
func (c *cosmad) burst(ctx context.Context, tr *tracer, in *mixInputs, perCaller int, out measured) (total tally) {
	before := c.srv.Stats()
	fails := make([]int, burstCallers)
	var wg sync.WaitGroup
	id := tr.begin(0, 0, "burst")
	start := time.Now()
	for g := range fails {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				got, _, err := c.srv.Multiply(ctx, in.a[0], in.b[0])
				if err != nil || !sameBits(got, in.ref[0]) {
					fails[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)
	tr.end(id)
	after := c.srv.Stats()
	total.attempted = burstCallers * perCaller
	for _, f := range fails {
		total.failed += f
	}
	out["serve.burst_ops_per_s"] = float64(total.attempted-total.failed) / wall.Seconds()
	out["serve.mean_batch"] = float64(after.Batched-before.Batched) / float64(after.Batches-before.Batches)
	return total
}

// httpEndToEnd is the untraced pass of an HTTP workload. Ahead of every
// segment the previous server is stopped and a fresh one set up, timed
// and warmed; the segment's requests go to it.
func httpEndToEnd(ctx context.Context, w spec, seed int64, dur time.Duration) (measured, tally, error) {
	in, err := newMixInputs(ctx, w.mix, seed)
	if err != nil {
		return nil, tally{}, err
	}
	var c *cosmad
	defer func() {
		if c != nil {
			c.stop(ctx)
		}
	}()
	var setups []float64
	warm := in.requests(seed+1, func() *cosmad { return c })
	win, err := runWindow(nil, "", dur, w.mix.clients, func() error {
		if c != nil {
			if err := c.stop(ctx); err != nil {
				return err
			}
		}
		var s float64
		if c, s, err = in.setup(ctx, nil); err != nil {
			return err
		}
		setups = append(setups, s)
		for i := 0; i < warmups*len(in.bodies); i++ {
			if _, err := warm(i % w.mix.clients); err != nil {
				return err
			}
		}
		runtime.GC()
		return nil
	}, in.requests(seed, func() *cosmad { return c }))
	if err != nil {
		return nil, win.tally, err
	}
	heap := liveHeapMiB()
	es := &engineSide{sh: in.shapes[0], a: in.a[0], b: in.b[0], ref: in.ref[0]}
	rep, err := es.modelled(ctx, nil, "cosma")
	if err != nil {
		return nil, win.tally, err
	}
	return endToEndMetrics(setups, win, heap, rep), win.tally, nil
}
