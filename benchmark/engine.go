package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"cosma"
)

const (
	// segmentLen and maxSegments cut a timed window into equal slices of
	// about a second. The reference box has stretches, from a second to
	// minutes long, in which both cores run up to 1.8× slower (a scalar
	// FMA loop slows with them while a memory copy does not: the host's
	// clock, not the program), and whole-window medians moved 11–40 %
	// between identical back-to-back runs. Two things take that out of
	// the wall-clock metrics. A window reports its best segment:
	// undisturbed as long as one second of the window is, while a real
	// regression slows every segment, the best one included. And since
	// a slow stretch can outlast a run, the window's clock yardstick
	// (yardstick, below) scales what is left to the reference clock.
	segmentLen  = time.Second
	maxSegments = 20
	// yardstickRefMs is what the yardstick takes on the reference box
	// when nothing slows it, and clockExponent how much of a clock
	// slowdown the four workloads feel: over fourteen recorded minutes
	// in which the yardstick ranged 1.85×, the workloads ranged 1.47×
	// (tall-k) to 1.71× (square-roomy), exponents 0.63 to 0.87. With
	// 0.75 the scaled values of all four stayed within ±8 %.
	yardstickRefMs = 3.0
	clockExponent  = 0.75
	// warmups are untimed operations ahead of a segment on a fresh
	// engine or server, so pools and arenas are at their steady size.
	warmups = 1
	// engineCheckEvery and httpCheckEvery are the cadence of the product
	// checks inside the timed windows.
	engineCheckEvery = 25
	httpCheckEvery   = 50
)

// segment is one slice of a timed window: the latency of every
// operation that started in it, its wall time, the bytes allocated
// while it ran, and how many operations failed (errored, were shed, or
// returned a wrong product).
type segment struct {
	ms         []float64
	wall       time.Duration
	allocBytes float64
	failed     int
}

// tally counts checked operations: how many were attempted and how many
// of those failed.
type tally struct {
	attempted int
	failed    int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// window is one timed closed loop, with the clock yardsticks taken
// around its segments.
type window struct {
	tally
	segs  []segment
	yards []float64
}

var yardstickSink float64

// yardstick times a fixed piece of the benchmark's own code that only
// the core clock can speed up or slow down: on every core at once, four
// dependent chains of 1.5 M fused multiply-adds. It returns milliseconds.
func yardstick() float64 {
	var wg sync.WaitGroup
	sums := make([]float64, runtime.GOMAXPROCS(0))
	start := time.Now()
	for g := range sums {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x0, x1, x2, x3 := 1.0, 1.1, 1.2, 1.3
			for i := 0; i < 1500000; i++ {
				x0 = math.FMA(x0, 0.999999, 1e-9)
				x1 = math.FMA(x1, 0.999999, 1e-9)
				x2 = math.FMA(x2, 0.999999, 1e-9)
				x3 = math.FMA(x3, 0.999999, 1e-9)
			}
			sums[g] = x0 + x1 + x2 + x3
		}(g)
	}
	wg.Wait()
	ms := millis(time.Since(start))
	for _, s := range sums {
		yardstickSink += s
	}
	return ms
}

// clock is how much slower than the reference clock the box ran in the
// window's best moments, as the workloads feel it: the low decile of
// the window's yardsticks over yardstickRefMs, to the clockExponent.
// Wall-clock end-to-end metrics are divided by it (rates multiplied).
func (w window) clock() float64 {
	ys := append([]float64(nil), w.yards...)
	sort.Float64s(ys)
	return math.Pow(quantile(ys, 0.1)/yardstickRefMs, clockExponent)
}

// all returns every latency of the window.
func (w window) all() []float64 {
	var ms []float64
	for _, s := range w.segs {
		ms = append(ms, s.ms...)
	}
	return ms
}

// p50ms is the window's median latency: the lowest of the segments'
// medians.
func (w window) p50ms() float64 {
	best := math.Inf(1)
	for _, s := range w.segs {
		best = min(best, median(s.ms))
	}
	return best
}

// opsPerSec is the window's throughput: the highest of the segments'
// correct operations per second.
func (w window) opsPerSec() float64 {
	best := 0.0
	for _, s := range w.segs {
		best = max(best, float64(len(s.ms)-s.failed)/s.wall.Seconds())
	}
	return best
}

// allocPerOp is the bytes allocated per operation
// (runtime.MemStats.TotalAlloc delta, every goroutine): the median over
// the segments, because a collection now and then empties the
// machine.Loan pools and the segment it falls in pays to refill them.
func (w window) allocPerOp() float64 {
	per := make([]float64, len(w.segs))
	for i, s := range w.segs {
		per[i] = s.allocBytes / float64(len(s.ms))
	}
	return median(per)
}

// operation runs one operation of a caller and returns an error if it
// failed. A non-nil check is the product check of that operation; it
// runs after the segment's clock has stopped, so the timed loop pays
// for taking the product and not for verifying it.
type operation func(caller int) (check func() error, err error)

// runWindow runs a closed loop for dur in segments: in each, every
// caller runs op back to back, its next operation starting only when
// the previous one returned, until the segment's share of dur is over.
// before, if not nil, runs ahead of every segment, outside its clock.
func runWindow(tr *tracer, name string, dur time.Duration, callers int, before func() error, op operation) (window, error) {
	w := window{segs: make([]segment, max(1, min(maxSegments, int(dur/segmentLen))))}
	takeYards := func() {
		for i := 0; i < 3; i++ {
			w.yards = append(w.yards, yardstick())
		}
	}
	defer takeYards()
	for si := range w.segs {
		takeYards()
		if before != nil {
			if err := before(); err != nil {
				return w, err
			}
		}
		seg := &w.segs[si]
		parts := make([]segment, callers)
		checks := make([][]func() error, callers)
		var wg sync.WaitGroup
		var mem0, mem1 runtime.MemStats
		runtime.ReadMemStats(&mem0)
		start := time.Now()
		for g := range parts {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				p := &parts[g]
				for len(p.ms) == 0 || time.Since(start) < dur/time.Duration(len(w.segs)) {
					id := tr.begin(0, g, name)
					t := time.Now()
					check, err := op(g)
					p.ms = append(p.ms, millis(time.Since(t)))
					tr.end(id)
					if err != nil {
						p.failed++
					} else if check != nil {
						checks[g] = append(checks[g], check)
					}
				}
			}(g)
		}
		wg.Wait()
		seg.wall = time.Since(start)
		runtime.ReadMemStats(&mem1)
		seg.allocBytes = float64(mem1.TotalAlloc - mem0.TotalAlloc)
		for g, p := range parts {
			seg.ms = append(seg.ms, p.ms...)
			seg.failed += p.failed
			for _, check := range checks[g] {
				if check() != nil {
					seg.failed++
				}
			}
		}
		w.attempted += len(seg.ms)
		w.failed += seg.failed
	}
	return w, nil
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// liveHeapMiB is the heap in use after a collection: what the process
// retains between operations. Two collections, because sync.Pool keeps
// a victim generation alive across one.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// sameBits reports whether two products are bitwise equal.
func sameBits(x, y *cosma.Matrix) bool {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return false
	}
	for i := 0; i < x.Rows; i++ {
		xr := x.Data[i*x.Stride : i*x.Stride+x.Cols]
		yr := y.Data[i*y.Stride : i*y.Stride+y.Cols]
		for j, v := range xr {
			if math.Float64bits(v) != math.Float64bits(yr[j]) {
				return false
			}
		}
	}
	return true
}

var errWrongProduct = errors.New("wrong product")

// engineSide is one shape with its operands, the product every
// execution must reproduce bit for bit, and a warm engine.
type engineSide struct {
	sh        shape
	a, b, ref *cosma.Matrix
	eng       *cosma.Engine
}

func newEngineSide(sh shape, seed int64) *engineSide {
	es := &engineSide{sh: sh}
	es.a, es.b = sh.inputs(seed)
	return es
}

// setup times construct → plan → first product on a fresh engine, which
// becomes the side's warm engine. The first product ever is checked
// with Huang–Abraham sums and every later one against it.
func (es *engineSide) setup(ctx context.Context, tr *tracer) (seconds float64, err error) {
	id := tr.begin(0, 0, "setup")
	start := time.Now()
	eng, err := cosma.NewEngine(es.sh.engineOptions()...)
	if err != nil {
		return 0, err
	}
	if _, err := eng.Plan(ctx, es.sh.m, es.sh.n, es.sh.k); err != nil {
		return 0, err
	}
	c, _, err := eng.Exec(ctx, es.a, es.b)
	seconds = time.Since(start).Seconds()
	tr.end(id)
	if err != nil {
		return 0, err
	}
	if es.ref == nil {
		if err := cosma.VerifyProduct(es.a, es.b, c); err != nil {
			return 0, err
		}
		es.ref = c
	} else if !sameBits(c, es.ref) {
		return 0, fmt.Errorf("%w from a fresh engine", errWrongProduct)
	}
	es.eng = eng
	return seconds, nil
}

// check is the in-loop product check: Huang–Abraham row and column sums
// and bitwise equality with the first product.
func (es *engineSide) check(c *cosma.Matrix) error {
	if err := cosma.VerifyProduct(es.a, es.b, c); err != nil {
		return err
	}
	if !sameBits(c, es.ref) {
		return errWrongProduct
	}
	return nil
}

// exec returns the operation "one Engine.Exec on the side's engine",
// every engineCheckEvery-th product checked.
func (es *engineSide) exec(ctx context.Context) operation {
	n := 0
	return func(int) (func() error, error) {
		c, _, err := es.eng.Exec(ctx, es.a, es.b)
		if n++; err != nil || n%engineCheckEvery != 0 {
			return nil, err
		}
		return func() error { return es.check(c) }, nil
	}
}

// warm runs the untimed operations before a window.
func (es *engineSide) warm(ctx context.Context) error {
	for i := 0; i < warmups; i++ {
		if _, _, err := es.eng.Exec(ctx, es.a, es.b); err != nil {
			return err
		}
	}
	return nil
}

// modelled executes the shape once on the timed transport under the
// Piz Daint preset and checks the product: bitwise against the counting
// transport's for COSMA, by checksums for the other algorithms (which
// sum in another order).
func (es *engineSide) modelled(ctx context.Context, tr *tracer, algorithm string) (*cosma.Report, error) {
	eng, err := cosma.NewEngine(es.sh.engineOptions(
		cosma.WithNetwork(cosma.PizDaintNetwork()), cosma.WithAlgorithm(algorithm))...)
	if err != nil {
		return nil, err
	}
	id := tr.begin(0, 0, "timed "+algorithm)
	c, rep, err := eng.Exec(ctx, es.a, es.b)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if algorithm == "cosma" {
		if !sameBits(c, es.ref) {
			return nil, fmt.Errorf("%w: timed transport differs from the counting transport", errWrongProduct)
		}
	} else if err := cosma.VerifyProduct(es.a, es.b, c); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", errWrongProduct, algorithm, err)
	}
	return rep, nil
}

// endToEndMetrics assembles the untraced pass's metrics from its parts.
// setup_s is the fastest of the fresh set-ups taken ahead of the
// segments, for the reason the other timings are the best segment's,
// and all three are scaled to the reference clock.
func endToEndMetrics(setups []float64, w window, heapMiB float64, timed *cosma.Report) measured {
	clock := w.clock()
	return measured{
		"setup_s":         slices.Min(setups) / clock,
		"p50_ms":          w.p50ms() / clock,
		"ops_per_s":       w.opsPerSec() * clock,
		"crit_path_ms":    timed.CritPathTime * 1e3,
		"max_recv_words":  float64(timed.MaxRecv),
		"alloc_kb_per_op": w.allocPerOp() / 1024,
		"live_heap_mb":    heapMiB,
	}
}

// engineEndToEnd is the untraced pass of an engine workload. Ahead of
// every segment a fresh engine is set up, timed and warmed; it takes
// over as the engine the segment's executions run on, and the previous
// one is collected.
func engineEndToEnd(ctx context.Context, sh shape, seed int64, dur time.Duration) (measured, tally, error) {
	es := newEngineSide(sh, seed)
	var setups []float64
	w, err := runWindow(nil, "", dur, 1, func() error {
		s, err := es.setup(ctx, nil)
		if err != nil {
			return err
		}
		setups = append(setups, s)
		runtime.GC()
		return es.warm(ctx)
	}, es.exec(ctx))
	if err != nil {
		return nil, w.tally, err
	}
	heap := liveHeapMiB()
	rep, err := es.modelled(ctx, nil, "cosma")
	if err != nil {
		return nil, w.tally, err
	}
	return endToEndMetrics(setups, w, heap, rep), w.tally, nil
}
