package matrix

import (
	"fmt"
	"math/rand"
	"time"
)

// Calibration is the measured local-compute profile of this machine: the
// sustained rate of the packed kernel and its reciprocal γ (seconds per
// flop), the constant the α-β-γ cost surface charges compute with. The
// paper's predictions assume a tuned dgemm running at hardware speed;
// Calibrate replaces that assumption with a measurement, so a model
// priced on the calibrated network (algo.Model.Time) reports what this
// binary actually achieves rather than a Piz Daint constant.
type Calibration struct {
	N       int           // problem size measured (n×n×n)
	Threads int           // kernel worker bound used
	Runs    int           // timed repetitions (best run is kept)
	Variant string        // register tile the kernel dispatched to
	Fused   bool          // whether that tile's multiply-add rounds once (math.FMA) or twice
	Best    time.Duration // fastest single multiplication
	GFlops  float64       // sustained 2n³/Best in Gflop/s
	Gamma   float64       // measured seconds per flop: 1/(GFlops·1e9)
}

// String implements fmt.Stringer.
func (c Calibration) String() string {
	return fmt.Sprintf("calibrated %d³ ×%d threads (%s): %.2f Gflop/s (γ = %.3g s/flop, best of %d runs %v)",
		c.N, c.Threads, c.Variant, c.GFlops, c.Gamma, c.Runs, c.Best)
}

// Calibrate measures the achieved throughput of the packed kernel on an
// n×n×n multiplication with the given worker bound (n <= 0 picks 384, a
// size past the L2 cliff but quick to repeat; threads <= 0 means
// GOMAXPROCS) and returns the measured γ. The kernel runs the register
// tile this process dispatched to — the one the executors run — and the
// returned Calibration names it, so γ reflects the kernel that actually
// runs. The measurement is the best of three timed runs after one
// warm-up; each call measures afresh.
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
	rng := rand.New(rand.NewSource(1))
	a := Random(n, n, rng)
	b := Random(n, n, rng)
	c := New(n, n)

	// Best of three timed runs against scheduler noise, after one
	// untimed warm-up that allocates the pack buffers and faults pages in.
	const runs = 3
	k.Mul(c, a, b)
	best := time.Duration(1<<63 - 1)
	for r := 0; r < runs; r++ {
		c.Zero()
		start := time.Now()
		k.Mul(c, a, b)
		best = min(best, time.Since(start))
	}
	flops := float64(MulFlops(n, n, n))
	gflops := flops / best.Seconds() / 1e9
	return Calibration{
		N: n, Threads: k.Threads(), Runs: runs,
		Variant: k.tile.name,
		Fused:   k.tile.fused,
		Best:    best,
		GFlops:  gflops,
		Gamma:   best.Seconds() / flops,
	}
}
