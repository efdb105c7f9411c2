package cosma

import (
	"context"
	"testing"
)

// The engine's amortization claim, measured: a warm plan plus a reused
// executor must beat the one-shot Multiply on allocations, because grid
// fitting, machine construction and the per-rank buffers are all paid
// once instead of per call. The benchmarks record the numbers (run with
// -benchmem); the tests below are the CI guards.

const (
	benchDim   = 256
	benchProcs = 16
	benchMem   = 1 << 14
)

// engineExecShapes are BenchmarkEngineExec's problems: 256³ at roomy
// and tight memory, a 1/16-scale tall-k (groups of one reading 16 MB of
// input in place, so B/op is the product plus the pool's misses), and
// the repo benchmark's three engine workloads at full size.
var engineExecShapes = []struct {
	name          string
	m, n, k, p, s int
}{
	{"256-roomy", benchDim, benchDim, benchDim, benchProcs, benchMem},
	{"256-tight", benchDim, benchDim, benchDim, benchProcs, 5120}, // [4×4×1] in 32 rounds of 8
	{"tall-k-16th", 64, 64, 16384, 8, 1 << 16},
	{"square-roomy", 1024, 1024, 1024, 16, 1 << 20},
	{"square-tight", 1024, 1024, 1024, 16, 69632},
	{"tall-k", 128, 128, 65536, 16, 1 << 18},
}

// BenchmarkEngineExec measures a warm Engine.Exec on each of
// engineExecShapes: the plan is cached and the executor (machine and
// per-rank kernels) reused. make bench-pair runs it against another
// revision's build.
func BenchmarkEngineExec(b *testing.B) {
	for _, c := range engineExecShapes {
		b.Run(c.name, func(b *testing.B) {
			eng, err := NewEngine(WithProcs(c.p), WithMemory(c.s))
			if err != nil {
				b.Fatal(err)
			}
			a, bb := RandomMatrix(c.m, c.k, 1), RandomMatrix(c.k, c.n, 2)
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
		})
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
	if _, _, err := eng.Exec(ctx, a, b); err != nil { // plan, pool an executor, build its kernels
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

// TestWarmExecAllocsDoNotGrowWithRounds guards the allocation-free
// round loop: at 256³ on p = 16, a warm Exec on [4×4×1] in 32 rounds of
// 8 allocates within one object per rank of the same grid in 16 rounds
// of 16, and neither more than 400 objects. A per-round allocation
// (a Pending, a receive, a share handle, a panel view) costs 16 ranks
// × 16 more rounds at least.
func TestWarmExecAllocsDoNotGrowWithRounds(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation guard runs full 256³ multiplications, and -race instruments allocations")
	}
	a := RandomMatrix(benchDim, benchDim, 1)
	b := RandomMatrix(benchDim, benchDim, 2)
	ctx := context.Background()
	allocs := make(map[int]float64)
	for _, c := range []struct{ s, rounds int }{{5120, 32}, {6144, 16}} {
		eng, err := NewEngine(WithProcs(benchProcs), WithMemory(c.s))
		if err != nil {
			t.Fatal(err)
		}
		pl, err := eng.Plan(ctx, benchDim, benchDim, benchDim)
		if err != nil {
			t.Fatal(err)
		}
		d, _ := pl.Decomposition()
		if d.GridPm != 4 || d.GridPn != 4 || d.GridPk != 1 || d.Rounds != c.rounds {
			t.Fatalf("S = %d plans [%d×%d×%d] in %d rounds, want [4×4×1] in %d", c.s, d.GridPm, d.GridPn, d.GridPk, d.Rounds, c.rounds)
		}
		if _, _, err := eng.Exec(ctx, a, b); err != nil { // warm the executor
			t.Fatal(err)
		}
		allocs[c.s] = testing.AllocsPerRun(3, func() {
			if _, _, err := eng.Exec(ctx, a, b); err != nil {
				t.Fatal(err)
			}
		})
		if allocs[c.s] > 400 {
			t.Errorf("S = %d: warm Exec allocates %.0f objects in %d rounds, want ≤ 400", c.s, allocs[c.s], c.rounds)
		}
	}
	if d := allocs[5120] - allocs[6144]; d > benchProcs || d < -benchProcs {
		t.Errorf("32 rounds allocate %.0f objects, 16 rounds %.0f: want within %d", allocs[5120], allocs[6144], benchProcs)
	}
	t.Logf("allocs per warm Exec: %.0f in 32 rounds, %.0f in 16", allocs[5120], allocs[6144])
}
