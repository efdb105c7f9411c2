package cosma

import (
	"context"
	"testing"
)

// The engine's amortization claim, measured: a warm plan plus a reused
// executor must beat the one-shot Multiply on allocations, because grid
// fitting, machine construction and the per-rank buffers are all paid
// once instead of per call. The benchmarks record the numbers (run with
// -benchmem); the test below is the CI guard.

const (
	benchDim   = 256
	benchProcs = 16
	benchMem   = 1 << 14
)

// BenchmarkEngineExecWarm measures Engine.Exec at steady state: the
// plan is cached and the executor (machine + per-rank scratch) reused.
func BenchmarkEngineExecWarm(b *testing.B) {
	eng, err := NewEngine(WithProcs(benchProcs), WithMemory(benchMem))
	if err != nil {
		b.Fatal(err)
	}
	a := RandomMatrix(benchDim, benchDim, 1)
	bb := RandomMatrix(benchDim, benchDim, 2)
	ctx := context.Background()
	if _, _, err := eng.Exec(ctx, a, bb); err != nil { // warm the plan + executor
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Exec(ctx, a, bb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineExecTallK measures a warm Engine.Exec on a scaled-down
// tall-k (the benchmark's largeK workload at 1/16 the words): a
// k-parallel grid whose ranks read 16 MB of input in place, so B/op is
// the product plus per-round bookkeeping and ns/op has no copy-in.
func BenchmarkEngineExecTallK(b *testing.B) {
	eng, err := NewEngine(WithProcs(8), WithMemory(1<<16))
	if err != nil {
		b.Fatal(err)
	}
	a := RandomMatrix(64, 16384, 1)
	bb := RandomMatrix(16384, 64, 2)
	ctx := context.Background()
	if _, _, err := eng.Exec(ctx, a, bb); err != nil { // warm the plan + executor
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Exec(ctx, a, bb); err != nil {
			b.Fatal(err)
		}
	}
}

// oneShot builds a fresh engine and multiplies once — the cost of not
// amortizing: re-planning and rebuilding the machine on every call.
func oneShot(a, b *Matrix) error {
	eng, err := NewEngine(WithProcs(benchProcs), WithMemory(benchMem))
	if err != nil {
		return err
	}
	_, _, err = eng.Exec(context.Background(), a, b)
	return err
}

// BenchmarkMultiplyOneShot measures the unamortized one-shot path.
func BenchmarkMultiplyOneShot(b *testing.B) {
	a := RandomMatrix(benchDim, benchDim, 1)
	bb := RandomMatrix(benchDim, benchDim, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := oneShot(a, bb); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWarmExecAllocatesLessThanOneShot is the benchmark guard of the
// engine acceptance criterion: on 256³ with p = 16, Exec on a warm plan
// with a reused executor must allocate strictly less per call than a
// one-shot engine.
func TestWarmExecAllocatesLessThanOneShot(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs full 256³ multiplications")
	}
	eng, err := NewEngine(WithProcs(benchProcs), WithMemory(benchMem))
	if err != nil {
		t.Fatal(err)
	}
	a := RandomMatrix(benchDim, benchDim, 1)
	b := RandomMatrix(benchDim, benchDim, 2)
	ctx := context.Background()
	if _, _, err := eng.Exec(ctx, a, b); err != nil { // plan, pool an executor, populate its scratch arena
		t.Fatal(err)
	}

	warm := testing.AllocsPerRun(3, func() {
		if _, _, err := eng.Exec(ctx, a, b); err != nil {
			t.Fatal(err)
		}
	})
	cold := testing.AllocsPerRun(3, func() {
		if err := oneShot(a, b); err != nil {
			t.Fatal(err)
		}
	})
	if warm >= cold {
		t.Fatalf("warm Exec allocates %.0f allocs/op, one-shot engine %.0f — want strictly fewer",
			warm, cold)
	}
	t.Logf("allocs/op: warm Exec %.0f vs one-shot engine %.0f (%.1f%% of one-shot)",
		warm, cold, 100*warm/cold)
}
