package matrix

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// tol scales the comparison tolerance with the summation depth k:
// packed blocking reorders the additions, so results differ from the
// naive oracle by rounding only.
func tol(k int) float64 { return 1e-12 * float64(k+1) }

func mulCase(t *testing.T, kern *Kernel, m, n, k int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a := Random(m, k, rng)
	b := Random(k, n, rng)
	c := Random(m, n, rng)
	want := c.Clone()
	kern.Mul(c, a, b)
	MulNaive(want, a, b)
	if d := MaxDiff(c, want); d > tol(k) {
		t.Errorf("%s kernel(threads=%d) %d×%d×%d: max diff %g vs naive", kern.tile.name, kern.Threads(), m, n, k, d)
	}
}

// TestKernelFringeShapes drives every tile this build defines, on one
// to three workers, over shapes chosen to hit every fringe path: primes
// straddling the mr/nr/kc boundaries, dimensions of 1, sizes just above
// and below the cache-block constants, a prime cube whose every
// blocking has a fringe, and every residue of n mod 12 — the AVX2
// tile's B panel width — under two full-height tiles and a fringe row
// of either tile height. Each product must be the naive one within
// accumulation-order rounding. One more row's products all underflow
// to −0, so a fused chain sums to −0: stored (MulPacked's β = 0) into a
// NaN-filled C it must land as +0, what a zeroed C plus the sum gives.
func TestKernelFringeShapes(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {1, 7, 1}, {7, 1, 13},
		{2, 3, 5}, {3, 5, 2}, {5, 2, 3}, {3, 5, 4},
		{4, 4, 4}, {5, 5, 5}, {8, 8, 8}, {64, 64, 64},
		{mr - 1, nr - 1, 3}, {mr + 1, nr + 1, 3},
		{13, 17, 19}, {17, 33, 9}, {31, 37, 41}, {53, 59, 61}, {65, 67, 130}, {97, 97, 97},
		{mc - 1, nr, kc - 1}, {mc + 1, 2*nr + 1, kc + 1},
		{67, nc + 3, 5}, {mc + mr + 1, 71, 2},
		{1, 101, 97}, {97, 1, 101}, {101, 97, 1}, {128, 100, 1},
	}
	for r := 0; r < 12; r++ {
		shapes = append(shapes, [3]int{17, 12 + r, 9})
	}
	for _, tl := range testTiles() {
		for _, threads := range []int{1, 2, 3} {
			kern := newKernel(threads, tl)
			for i, s := range shapes {
				mulCase(t, kern, s[0], s[1], s[2], int64(100+i))
			}
			a, b, c := New(17, 13), New(13, 19), New(17, 19)
			a.Fill(-1e-200)
			b.Fill(1e-200)
			c.Fill(math.NaN())
			kern.MulPacked(c, kern.PackA(nil, a), kern.PackB(nil, b), 0, 17, true)
			for i, v := range c.Data {
				if math.Float64bits(v) != 0 {
					t.Fatalf("%s, %d threads: −0 sums stored Data[%d] = %v (bits %#x), want +0", tl.name, threads, i, v, math.Float64bits(v))
				}
			}
		}
	}
}

// TestKernelZeroDims covers m·n·k = 0: the kernel must be a no-op, not
// a panic, for every empty operand combination.
func TestKernelZeroDims(t *testing.T) {
	kern := NewKernel(2)
	for _, s := range [][3]int{{0, 5, 3}, {5, 0, 3}, {5, 3, 0}, {0, 0, 0}} {
		m, n, k := s[0], s[1], s[2]
		c := New(m, n)
		kern.Mul(c, New(m, k), New(k, n))
		NewKernel(1).Mul(c, New(m, k), New(k, n))
	}
	// A 0-row view with nonzero stride, as rank programs produce.
	base := New(6, 6)
	v := base.View(0, 0, 0, 4)
	kern.Mul(New(0, 3), v.View(0, 0, 0, 2), New(2, 3).View(0, 0, 2, 3))
}

// TestKernelThreadsBitwiseEqual: the worker split is over disjoint row
// chunks with an unchanged per-element accumulation order, so any
// thread count must produce bitwise-identical results to the serial
// packed kernel — through Mul, and through PackA + PackB + MulPacked
// over row bands that start off a micro-panel boundary, as the rank
// programs multiply.
func TestKernelThreadsBitwiseEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range [][3]int{{129, 65, 130}, {mc + 7, 33, kc + 5}, {8, 8, 8}} {
		m, n, k := s[0], s[1], s[2]
		a := Random(m, k, rng)
		b := Random(k, n, rng)
		ref := New(m, n)
		NewKernel(1).Mul(ref, a, b)
		for _, threads := range []int{1, 2, 3, 8} {
			kern := NewKernel(threads)
			c := New(m, n)
			kern.Mul(c, a, b)
			banded := New(m, n)
			pa, pb := kern.PackA(nil, a), kern.PackB(nil, b)
			for _, band := range [][2]int{{0, m/3 + 1}, {m/3 + 1, m - 2}, {m - 2, m}} {
				kern.MulPacked(banded, pa, pb, band[0], band[1], false)
			}
			for name, got := range map[string]*Dense{"Mul": c, "PackA+PackB+MulPacked": banded} {
				if d := MaxDiff(got, ref); d != 0 {
					t.Errorf("threads=%d %v %s: differs from serial Mul by %g (want bitwise equality)", threads, s, name, d)
				}
			}
		}
	}
}

// TestKernelReuseAcrossCalls exercises the pack-buffer reuse path: one
// kernel driven across different shapes must stay correct (stale packed
// panels from a previous call must never leak in).
func TestKernelReuseAcrossCalls(t *testing.T) {
	kern := NewKernel(2)
	for i, s := range [][3]int{{64, 64, 64}, {7, 7, 7}, {200, 3, 150}, {3, 200, 1}, {64, 64, 64}} {
		mulCase(t, kern, s[0], s[1], s[2], int64(200+i))
	}
}

// TestKernelWarmMulAllocatesNothing: a warm one-worker kernel — what
// every rank of a two-core box runs — multiplies without allocating,
// fringes and several kc/nc blocks included, and so do PackA and PackB
// into buffers of their length and MulPacked over a band that starts
// inside a micro-panel.
func TestKernelWarmMulAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a, b := Random(37, kc+9, rng), Random(kc+9, nc+5, rng)
	c := New(37, nc+5)
	kern := NewKernel(1)
	kern.Mul(c, a, b)
	if n := testing.AllocsPerRun(3, func() { kern.Mul(c, a, b) }); n != 0 {
		t.Errorf("warm Mul allocates %v times per call, want 0", n)
	}
	abuf, bbuf := make([]float64, kern.PackedALen(a.Rows, a.Cols)), make([]float64, kern.PackedBLen(b.Rows, b.Cols))
	if n := testing.AllocsPerRun(3, func() { kern.MulPacked(c, kern.PackA(abuf, a), kern.PackB(bbuf, b), 5, 30, false) }); n != 0 {
		t.Errorf("warm PackA + PackB + MulPacked allocates %v times per call, want 0", n)
	}
}

// TestKernelMatVecStructural cross-checks the packed kernel with the
// matrix-vector associativity property the package's structural tests
// use: (A·B)·x = A·(B·x) on fringe-heavy shapes.
func TestKernelMatVecStructural(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	kern := NewKernel(2)
	for _, s := range [][3]int{{37, 29, 31}, {mc + 1, 17, kc + 3}} {
		m, n, k := s[0], s[1], s[2]
		a := Random(m, k, rng)
		b := Random(k, n, rng)
		x := Random(n, 1, rng)
		ab := New(m, n)
		kern.Mul(ab, a, b)
		abx := New(m, 1)
		kern.Mul(abx, ab, x)
		bx := New(k, 1)
		kern.Mul(bx, b, x)
		abx2 := New(m, 1)
		kern.Mul(abx2, a, bx)
		if d := MaxDiff(abx, abx2); d > 1e-9 {
			t.Errorf("(A·B)·x vs A·(B·x) for %v: max diff %g", s, d)
		}
	}
}

// TestPackedKernelBeatsNaive is the kernel's throughput guard, two
// ratios from one set of 512³ operands: the packed register-blocked
// kernel must be at least 3× the naive triple loop, and the dispatched
// SIMD tile at least 2× the portable Go 4×4 tile. Both bars sit far under
// what the reference box measures (35× under -tags noasm, 7×), leaving
// room for loaded CI runners. Timing is best-of-3 against scheduler
// noise.
func TestPackedKernelBeatsNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	const n = 512
	rng := rand.New(rand.NewSource(17))
	a := Random(n, n, rng)
	b := Random(n, n, rng)
	c := New(n, n)
	flops := float64(MulFlops(n, n, n))

	// Serial kernels: the guards must hold without threading.
	bestOf3 := func(kern *Kernel) time.Duration {
		kern.Mul(c, a, b) // warm-up
		best := time.Duration(1<<63 - 1)
		for r := 0; r < 3; r++ {
			start := time.Now()
			kern.Mul(c, a, b)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	packed := bestOf3(NewKernel(1))
	start := time.Now()
	MulNaive(c, a, b)
	naive := time.Since(start)

	ratio := float64(naive) / float64(packed)
	t.Logf("512³: packed %v (%.2f Gflop/s), naive %v (%.2f Gflop/s) — %.1f×",
		packed, flops/packed.Seconds()/1e9, naive, flops/naive.Seconds()/1e9, ratio)
	if ratio < 3 {
		t.Errorf("packed kernel only %.2f× naive at 512³, want ≥ 3×", ratio)
	}

	if dispatched.sweep == nil {
		return // -tags noasm, or no SIMD on this CPU: nothing to compare
	}
	portable := bestOf3(newKernel(1, portableTile))
	ratio = float64(portable) / float64(packed)
	t.Logf("512³: %s %v, %s %v (%.2f Gflop/s) — %.1f×",
		dispatched.name, packed, portableTile.name, portable, flops/portable.Seconds()/1e9, ratio)
	if ratio < 2 {
		t.Errorf("%s only %.2f× the portable tile at 512³, want ≥ 2×", dispatched.name, ratio)
	}
}

// TestCalibrate checks the calibration measurement is internally
// consistent: positive sustained rate, γ the exact reciprocal, and the
// requested thread bound echoed back.
func TestCalibrate(t *testing.T) {
	cal := Calibrate(96, 2)
	if cal.N != 96 || cal.Threads != 2 || cal.Runs < 1 {
		t.Fatalf("unexpected calibration metadata: %+v", cal)
	}
	if cal.GFlops <= 0 || cal.Gamma <= 0 {
		t.Fatalf("non-positive calibration: %+v", cal)
	}
	if g := 1 / (cal.GFlops * 1e9); g < cal.Gamma*0.999 || g > cal.Gamma*1.001 {
		t.Errorf("Gamma %g is not the reciprocal of GFlops %g", cal.Gamma, cal.GFlops)
	}
	if cal.String() == "" {
		t.Error("empty String()")
	}
}
