package cosma

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cosma/internal/matrix"
)

// reference computes the plain O(n³) product for verification.
func reference(a, b *Matrix) *Matrix {
	c := matrix.New(a.Rows, b.Cols)
	matrix.NewKernel(1).Mul(c, a, b)
	return c
}

// TestEngineConcurrentMixedShapes drives one shared Engine from many
// goroutines with a mix of shapes — some hitting the plan cache, some
// missing — and verifies every product against the reference kernel.
// Run under -race this is the engine's thread-safety proof.
func TestEngineConcurrentMixedShapes(t *testing.T) {
	eng, err := NewEngine(WithProcs(8), WithMemory(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct{ m, n, k int }{
		{32, 32, 32},
		{48, 16, 24},
		{16, 64, 8},
		{40, 24, 56},
		{32, 40, 24},
	}
	const workers = 12
	const iters = 3
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sh := shapes[w%len(shapes)]
			a := RandomMatrix(sh.m, sh.k, int64(w+1))
			b := RandomMatrix(sh.k, sh.n, int64(w+100))
			want := reference(a, b)
			for i := 0; i < iters; i++ {
				got, rep, err := eng.Exec(context.Background(), a, b)
				if err != nil {
					errc <- err
					return
				}
				if !matrix.EqualWithin(got, want, 1e-9) || rep.P != 8 {
					errc <- fmt.Errorf("concurrent result on %d ranks disagrees with reference", rep.P)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	stats := eng.CacheStats()
	if int(stats.Misses) != len(shapes) {
		t.Fatalf("planned %d times for %d shapes (stats %+v)", stats.Misses, len(shapes), stats)
	}
	if want := int64(workers*iters - len(shapes)); stats.Hits != want {
		t.Fatalf("cache hits %d, want %d (stats %+v)", stats.Hits, want, stats)
	}
}

// TestEngineExecCancellation cancels a large multiplication mid-run:
// Exec must return ctx.Err() promptly and the engine must remain usable.
func TestEngineExecCancellation(t *testing.T) {
	eng, err := NewEngine(WithProcs(16), WithMemory(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	a := RandomMatrix(512, 512, 1)
	b := RandomMatrix(512, 512, 2)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(2*time.Millisecond, cancel)
	start := time.Now()
	_, _, err = eng.Exec(ctx, a, b)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Exec returned %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}
	// The plan's pooled executor (and its machine) must have survived
	// the abort: the same shape must now run to completion.
	got, _, err := eng.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatalf("engine unusable after cancellation: %v", err)
	}
	if !matrix.EqualWithin(got, reference(a, b), 1e-9) {
		t.Fatal("post-cancellation result disagrees with reference")
	}
}

// TestRegistryReachableByName exercises COSMA and the four baselines
// end-to-end through WithAlgorithm, by canonical name and alias.
func TestRegistryReachableByName(t *testing.T) {
	// 16×16×16 on p=4: Cannon's q=2 divides everything.
	a := RandomMatrix(16, 16, 3)
	b := RandomMatrix(16, 16, 4)
	want := reference(a, b)
	// cmd/cosma prints "<algorithm> plan: <plan>": the plan's text must
	// not repeat the name, Decomposition or not.
	planText := map[string]string{
		"cannon": "grid [2×2×1] (4 ranks)",
	}
	names := []string{"cosma", "summa", "2.5d", "carma", "cannon", "scalapack", "ctf", "CARMA"}
	for _, name := range names {
		eng, err := NewEngine(WithProcs(4), WithMemory(1<<16), WithAlgorithm(name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, rep, err := eng.Exec(context.Background(), a, b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !matrix.EqualWithin(got, want, 1e-9) {
			t.Fatalf("%s (%s) disagrees with reference", name, rep.Model.Name)
		}
		plan, err := eng.Plan(context.Background(), 16, 16, 16)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		text := fmt.Sprint(plan)
		if strings.Contains(text, plan.Algorithm()) {
			t.Fatalf("%s: plan text %q repeats the algorithm name %q", name, text, plan.Algorithm())
		}
		if pinned, ok := planText[name]; ok && text != pinned {
			t.Fatalf("%s: plan text %q, want %q", name, text, pinned)
		}
	}
	paperOrder := []string{"cosma", "summa", "2.5d", "carma", "cannon"}
	if got := Algorithms(); !reflect.DeepEqual(got, paperOrder) {
		t.Fatalf("Algorithms() = %v, want %v", got, paperOrder)
	}
	// The sub-cubic algorithm and its aliases (lookup folds case) left
	// the registry; the error names what is there instead.
	for _, name := range []string{"winograd", "caps", "STRASSEN", "bdhs"} {
		_, err := NewEngine(WithAlgorithm(name))
		if err == nil || !strings.Contains(err.Error(), "unknown algorithm") ||
			!strings.Contains(err.Error(), strings.Join(paperOrder, ", ")) {
			t.Fatalf("%s: unknown algorithm error = %v", name, err)
		}
	}
}

func TestEnginePlanIsCachedAndImmutable(t *testing.T) {
	eng, err := NewEngine(WithProcs(8), WithMemory(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p1, err := eng.Plan(ctx, 64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.Plan(ctx, 64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("same shape must return the cached *Plan")
	}
	stats := eng.CacheStats()
	if stats.Misses != 1 || stats.Hits != 1 {
		t.Fatalf("stats %+v, want 1 miss + 1 hit", stats)
	}
	if in := p1.inner; in.M != 64 || in.N != 64 || in.K != 64 || in.P != 8 {
		t.Fatalf("plan geometry: dims %d×%d×%d p=%d", in.M, in.N, in.K, in.P)
	}
}

func TestEnginePlanCacheEviction(t *testing.T) {
	eng, err := NewEngine(WithProcs(4), WithMemory(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for n := 1; n <= planCacheSize+1; n++ { // one shape more than the cache holds
		if _, err := eng.Plan(ctx, n, n, n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Plan(ctx, 1, 1, 1); err != nil { // evicted: re-planned
		t.Fatal(err)
	}
	stats := eng.CacheStats()
	if stats.Misses != planCacheSize+2 || stats.Len != planCacheSize || stats.Cap != planCacheSize {
		t.Fatalf("stats %+v, want %d misses in a full %d-entry cache", stats, planCacheSize+2, planCacheSize)
	}
}

func TestMultiplyBatch(t *testing.T) {
	eng, err := NewEngine(WithProcs(8), WithMemory(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]Pair, 4)
	for i := range pairs {
		pairs[i] = Pair{A: RandomMatrix(32, 16, int64(i+1)), B: RandomMatrix(16, 24, int64(i+50))}
	}
	outs, reps, err := eng.MultiplyBatch(context.Background(), pairs)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(pairs) || len(reps) != len(pairs) {
		t.Fatalf("got %d results, %d reports", len(outs), len(reps))
	}
	for i, p := range pairs {
		if !matrix.EqualWithin(outs[i], reference(p.A, p.B), 1e-9) {
			t.Fatalf("batch pair %d disagrees with reference", i)
		}
		if reps[i] == nil {
			t.Fatalf("batch pair %d missing report", i)
		}
	}
	if stats := eng.CacheStats(); stats.Misses != 1 {
		t.Fatalf("batch planned %d times, want 1", stats.Misses)
	}

	// Mixed shapes must be rejected up front.
	bad := append(pairs[:2:2], Pair{A: RandomMatrix(8, 8, 1), B: RandomMatrix(8, 8, 2)})
	if _, _, err := eng.MultiplyBatch(context.Background(), bad); err == nil {
		t.Fatal("mixed-shape batch must error")
	}
}

// TestPredictSharesThePlanGrid: a forecast read off Plan and the report
// of executing the shape come from one cached plan, so they describe the
// same grid and the same price.
func TestPredictSharesThePlanGrid(t *testing.T) {
	net := PizDaintNetwork()
	eng, err := NewEngine(WithProcs(13), WithMemory(1<<14), WithNetwork(net))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Plan(context.Background(), 96, 80, 112)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := eng.Exec(context.Background(), RandomMatrix(96, 112, 1), RandomMatrix(112, 80, 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model != plan.Model() {
		t.Fatalf("report model %+v, plan model %+v", rep.Model, plan.Model())
	}
	if got, want := rep.PredictedAsExecuted(), plan.Model().Time(net, rep.Overlap); got != want {
		t.Fatalf("report predicts %v, the plan's model prices at %v", got, want)
	}
	if stats := eng.CacheStats(); stats.Misses != 1 {
		t.Fatalf("Exec re-planned: %+v", stats)
	}
}

func TestNewEngineValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"negative procs", []Option{WithProcs(-1)}},
		{"negative memory", []Option{WithMemory(-5)}},
		{"unknown algorithm", []Option{WithAlgorithm("nope")}},
	}
	for _, c := range cases {
		if _, err := NewEngine(c.opts...); err == nil {
			t.Fatalf("%s: NewEngine accepted invalid options", c.name)
		}
	}
	// Zero values normalize instead of erroring.
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	if eng.cfg.procs != 1 || eng.cfg.memory != UnboundedMemory {
		t.Fatalf("defaults: p=%d S=%d", eng.cfg.procs, eng.cfg.memory)
	}
	if eng.cfg.network != nil {
		t.Fatal("default engine must count, not time")
	}
}

func TestExecutorShapeValidation(t *testing.T) {
	eng, err := NewEngine(WithProcs(4), WithMemory(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a16, a8 := RandomMatrix(16, 16, 1), RandomMatrix(8, 8, 1)
	outs, _, err := eng.MultiplyBatch(ctx, []Pair{{a16, a16}, {a8, a8}})
	if err == nil || outs != nil {
		t.Fatalf("batch must reject a pair off the first pair's shape before running any: %v, %v", outs, err)
	}
	// Behind the batch's own check the pooled executor validates again:
	// a plan never multiplies a shape it was not fitted for.
	plan, err := eng.Plan(ctx, 16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := plan.run(ctx, []Pair{{a8, a8}}); err == nil {
		t.Fatal("executor must reject mismatched shapes")
	}
}
