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
	benchMulPanels(b, []*Dense{a}, bb, mul)
}

// benchMulPanels is benchMulOperands with iteration i multiplying A
// panel i mod len(panels): panels of one shape, taken in turn.
func benchMulPanels(b *testing.B, panels []*Dense, bb *Dense, mul func(c, a, bb *Dense)) {
	a := panels[0]
	c := New(a.Rows, bb.Cols)
	mul(c, a, bb) // warm-up: pack buffers, page faults
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mul(c, panels[i%len(panels)], bb)
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

// BenchmarkKernelPackedStrided is tall-k's rounds as the rank program
// runs them: each iteration multiplies the next 128×960 panel of A in
// place out of its 128×65536 parent, wrapping around at the end, so A
// streams from memory as it does in an Exec; the parent's 512 KiB row
// stride lands every row packA reads on the same cache sets. Next to it
// the same sweep over compact panels — the price of not copying them
// first.
func BenchmarkKernelPackedStrided(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const m, kk, n, stride = 128, 960, 128, 65536
	const count = stride / kk
	parent, compact := Random(m, stride, rng), Random(count*m, kk, rng)
	var strided, compacts []*Dense
	for j := 0; j < count; j++ {
		strided = append(strided, parent.View(0, j*kk, m, kk))
		compacts = append(compacts, compact.View(j*m, 0, m, kk))
	}
	bb := Random(kk, n, rng)
	for _, c := range []struct {
		name   string
		panels []*Dense
	}{{"compact", compacts}, {"stride65536", strided}} {
		b.Run(c.name, func(b *testing.B) {
			benchMulPanels(b, c.panels, bb, NewKernel(1).Mul)
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

// rankShapes are the per-rank Mul calls of the repo benchmark's engine
// workloads — one round of square-roomy (grid 2×2×4), square-tight
// (4×4×1) and tall-k (1×1×15, whose rounds step (2¹⁸ − 128²)/256 = 960
// deep) — with the row strides of the owning rank's Views of the
// caller's matrices.
var rankShapes = []struct {
	name             string
	m, kk, n         int
	aStride, bStride int
}{
	{"square-roomy", 512, 128, 512, 1024, 1024},
	{"square-tight", 256, 8, 256, 1024, 1024},
	{"tall-k", 128, 960, 128, 65536, 128},
}

// rankOperands returns A and B views of one rank shape, each the last
// columns of a random parent as wide as its stride.
func rankOperands(rng *rand.Rand, m, kk, n, aStride, bStride int) (a, bb *Dense) {
	return Random(m, aStride, rng).View(0, aStride-kk, m, kk), Random(kk, bStride, rng).View(0, bStride-n, kk, n)
}

// BenchmarkKernelRankShapes times the rank shapes' Mul calls for the
// portable tile and the dispatched SIMD tile.
func BenchmarkKernelRankShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range rankShapes {
		a, bb := rankOperands(rng, s.m, s.kk, s.n, s.aStride, s.bStride)
		for _, tl := range testTiles() {
			b.Run(fmt.Sprintf("%s_%dx%dx%d/%s", s.name, s.m, s.kk, s.n, tl.name), func(b *testing.B) {
				benchMulOperands(b, a, bb, newKernel(1, tl).Mul)
			})
		}
	}
}

// BenchmarkPack times packing alone at the rank shapes, for the panel
// widths of the portable and the dispatched tile: PackA over all of A
// and PackB over all of B, as a panel's owner packs them. Throughput is
// in bytes of the operand read.
func BenchmarkPack(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range rankShapes {
		a, bb := rankOperands(rng, s.m, s.kk, s.n, s.aStride, s.bStride)
		for _, tl := range testTiles() {
			k := newKernel(1, tl)
			name := fmt.Sprintf("%s_%dx%dx%d/%s", s.name, s.m, s.kk, s.n, tl.name)
			b.Run(name+"/packA", func(b *testing.B) {
				dst := make([]float64, k.PackedALen(s.m, s.kk))
				b.SetBytes(int64(8 * s.m * s.kk))
				for i := 0; i < b.N; i++ {
					k.PackA(dst, a)
				}
			})
			b.Run(name+"/packB", func(b *testing.B) {
				dst := make([]float64, k.PackedBLen(s.kk, s.n))
				b.SetBytes(int64(8 * s.kk * s.n))
				for i := 0; i < b.N; i++ {
					k.PackB(dst, bb)
				}
			})
		}
	}
}
