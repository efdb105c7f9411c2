package matrix

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Calibration is the measured local-compute profile of this machine: the
// sustained rate of the packed kernel and its reciprocal γ (seconds per
// flop), the constant the α-β-γ cost surface charges compute with. The
// paper's predictions assume a tuned dgemm running at hardware speed;
// Calibrate replaces that assumption with a measurement, so
// Engine.Predict and the figure tables report what this binary
// actually achieves rather than a Piz Daint constant.
type Calibration struct {
	N       int           // problem size measured (n×n×n)
	Threads int           // kernel worker bound used
	Runs    int           // timed repetitions (best run is kept)
	Variant string        // micro-kernel variant the kernel dispatched to
	Best    time.Duration // fastest single multiplication
	GFlops  float64       // sustained 2n³/Best in Gflop/s
	Gamma   float64       // measured seconds per flop: 1/(GFlops·1e9)
}

// String implements fmt.Stringer.
func (c Calibration) String() string {
	return fmt.Sprintf("calibrated %d³ ×%d threads (%s): %.2f Gflop/s (γ = %.3g s/flop, best of %d runs %v)",
		c.N, c.Threads, c.Variant, c.GFlops, c.Gamma, c.Runs, c.Best)
}

// calMemo caches calibration results per (n, resolved threads) for the
// lifetime of the process: a calibration is a property of the machine
// and binary, not of the caller, so cmd/cosma -calibrate and
// cmd/experiments -calibrate never redundantly re-run the measurement
// loop within one invocation.
var calMemo struct {
	sync.Mutex
	m    map[[2]int]Calibration
	runs int // measurement loops actually executed (for tests)
}

// timeMul times kernel multiplications of a·b into c and returns the
// fastest of runs repetitions — the standard best-of-N discipline
// against scheduler noise. One untimed warm-up run populates the pack
// buffers and faults pages in.
func timeMul(k *Kernel, c, a, b *Dense, runs int) time.Duration {
	k.Mul(c, a, b) // warm-up: allocate pack buffers, fault pages in
	best := time.Duration(1<<63 - 1)
	for r := 0; r < runs; r++ {
		c.Zero()
		start := time.Now()
		k.Mul(c, a, b)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// Calibrate measures the achieved throughput of the packed kernel on an
// n×n×n multiplication with the given worker bound (n <= 0 picks 384, a
// size past the L2 cliff but quick to repeat; threads <= 0 means
// GOMAXPROCS) and returns the measured γ. The kernel dispatches to the
// best micro-kernel variant available on this CPU — the same default
// the executors use — and the returned Calibration names it, so γ
// reflects the kernel that actually runs. Results are memoized per
// (n, threads) for the process lifetime; the underlying measurement is
// the best of three timed runs after one warm-up.
//
// Feed the result into a network model with NetworkParams.WithGamma so
// predictions charge compute at the measured rate:
//
//	cal := matrix.Calibrate(0, 0)
//	net := machine.PizDaintNet().WithGamma(cal.Gamma)
func Calibrate(n, threads int) Calibration {
	if n <= 0 {
		n = 384
	}
	k := NewKernel(threads)
	key := [2]int{n, k.Threads()}
	calMemo.Lock()
	defer calMemo.Unlock()
	if cal, ok := calMemo.m[key]; ok {
		return cal
	}
	cal := calibrateKernel(n, k)
	if calMemo.m == nil {
		calMemo.m = make(map[[2]int]Calibration)
	}
	calMemo.m[key] = cal
	calMemo.runs++
	return cal
}

// calibrateKernel runs the uncached measurement loop for one kernel.
func calibrateKernel(n int, k *Kernel) Calibration {
	rng := rand.New(rand.NewSource(1))
	a := Random(n, n, rng)
	b := Random(n, n, rng)
	c := New(n, n)

	const runs = 3
	best := timeMul(k, c, a, b, runs)
	flops := float64(MulFlops(n, n, n))
	gflops := flops / best.Seconds() / 1e9
	return Calibration{
		N: n, Threads: k.Threads(), Runs: runs,
		Variant: k.Variant().String(),
		Best:    best,
		GFlops:  gflops,
		Gamma:   best.Seconds() / flops,
	}
}
