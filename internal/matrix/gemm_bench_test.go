package matrix

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// benchMul reports Gflop/s for one kernel configuration, the metric the
// README performance table quotes.
func benchMul(b *testing.B, n int, mul func(c, a, bb *Dense)) {
	rng := rand.New(rand.NewSource(1))
	benchMulOperands(b, Random(n, n, rng), Random(n, n, rng), mul)
}

// benchMulOperands is benchMul on given operands, views included.
func benchMulOperands(b *testing.B, a, bb *Dense, mul func(c, a, bb *Dense)) {
	c := New(a.Rows, bb.Cols)
	mul(c, a, bb) // warm-up: pack buffers, page faults
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mul(c, a, bb)
	}
	b.StopTimer()
	flops := float64(MulFlops(a.Rows, bb.Cols, a.Cols)) * float64(b.N)
	b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "Gflop/s")
}

// BenchmarkKernelNaive is the textbook triple loop — the floor the
// packed kernel is guarded against (TestPackedKernelBeatsNaive).
func BenchmarkKernelNaive(b *testing.B) {
	for _, n := range []int{256, 512} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			benchMul(b, n, MulNaive)
		})
	}
}

// BenchmarkKernelPacked is the serial packed register-blocked kernel.
func BenchmarkKernelPacked(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			k := NewKernel(1)
			benchMul(b, n, k.Mul)
		})
	}
}

// BenchmarkKernelPackedStrided is one tall-k round as the rank program
// now runs it: a 128×960 panel of A multiplied in place out of its
// 128×65536 parent, whose 512 KiB row stride lands every row packA
// gathers on the same cache sets, next to the same panel compact — the
// price of not copying it first.
func BenchmarkKernelPackedStrided(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const m, kk, n, stride = 128, 960, 128, 65536
	panel := Random(m, stride, rng).View(0, 7*kk, m, kk)
	bb := Random(kk, n, rng)
	for _, c := range []struct {
		name string
		a    *Dense
	}{{"compact", panel.Clone()}, {"stride65536", panel}} {
		b.Run(c.name, func(b *testing.B) {
			benchMulOperands(b, c.a, bb, NewKernel(1).Mul)
		})
	}
}

// BenchmarkKernelPackedThreads is the packed kernel with the worker
// pool at GOMAXPROCS — on a single-core runner it degenerates to the
// serial kernel plus scheduling noise, which is itself worth tracking.
func BenchmarkKernelPackedThreads(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			k := NewKernel(runtime.GOMAXPROCS(0))
			benchMul(b, n, k.Mul)
		})
	}
}

// BenchmarkKernelPackedGo is the portable Go 4×4 tile forced, so the
// SIMD speedup stays visible next to BenchmarkKernelPacked (which runs
// the dispatched tile).
func BenchmarkKernelPackedGo(b *testing.B) {
	for _, n := range []int{256, 512} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			k := newKernel(1, portableTile)
			benchMul(b, n, k.Mul)
		})
	}
}

// BenchmarkCalibrate tracks the cost of one calibration measurement
// (a warm-up and three timed multiplications).
func BenchmarkCalibrate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Calibrate(128, 1)
	}
}

// BenchmarkKernelRankShapes times the three per-rank Mul calls of the
// repo benchmark's engine workloads — one round of square-roomy (grid
// 2×2×4), square-tight (4×4×1) and tall-k (1×1×15) — on operands
// strided as the owning rank's Views of the caller's matrices are, for
// the portable tile and the dispatched SIMD tile.
func BenchmarkKernelRankShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []struct {
		name             string
		m, kk, n         int
		aStride, bStride int
	}{
		{"square-roomy", 512, 128, 512, 1024, 1024},
		{"square-tight", 256, 8, 256, 1024, 1024},
		{"tall-k", 128, 874, 128, 65536, 128},
	} {
		a := Random(s.m, s.aStride, rng).View(0, s.aStride-s.kk, s.m, s.kk)
		bb := Random(s.kk, s.bStride, rng).View(0, s.bStride-s.n, s.kk, s.n)
		for _, tl := range testTiles() {
			b.Run(fmt.Sprintf("%s_%dx%dx%d/%s", s.name, s.m, s.kk, s.n, tl.name), func(b *testing.B) {
				benchMulOperands(b, a, bb, newKernel(1, tl).Mul)
			})
		}
	}
}
