package seq

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cosma/internal/bound"
	"cosma/internal/matrix"
)

func TestMultiplyCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ m, k, n, s int }{
		{8, 8, 8, 16},
		{13, 7, 11, 25},
		{1, 1, 1, 4},
		{32, 16, 24, 100},
		{5, 40, 3, 12},
	} {
		a := matrix.Random(c.m, c.k, rng)
		b := matrix.Random(c.k, c.n, rng)
		want := matrix.New(c.m, c.n)
		matrix.NewKernel(1).Mul(want, a, b)
		got := Multiply(a, b, c.s)
		if d := matrix.MaxDiff(got.C, want); d > 1e-9*float64(c.k) {
			t.Fatalf("%+v: max diff %g", c, d)
		}
	}
}

func TestMultiplyIOEqualsTileFormula(t *testing.T) {
	// On tile-divisible problems the measured I/O must equal TileIO
	// exactly — the schedule is the formula.
	rng := rand.New(rand.NewSource(2))
	for _, c := range []struct{ m, k, n, s, ta, tb int }{
		{12, 10, 12, 20, 3, 4},
		{16, 8, 16, 30, 4, 4},
		{6, 5, 15, 11, 2, 3},
	} {
		a := matrix.Random(c.m, c.k, rng)
		b := matrix.Random(c.k, c.n, rng)
		res := MultiplyTiled(a, b, c.s, c.ta, c.tb)
		want := bound.TileIO(c.m, c.n, c.k, c.ta, c.tb)
		if float64(res.IO()) != want {
			t.Fatalf("%+v: measured IO %d, formula %v", c, res.IO(), want)
		}
		if res.Stores != int64(c.m*c.n) {
			t.Fatalf("%+v: stores %d, want mn", c, res.Stores)
		}
	}
}

func TestMultiplyPeakRespectsConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := matrix.Random(20, 15, rng)
	b := matrix.Random(15, 18, rng)
	for _, s := range []int{4, 9, 16, 50, 120} {
		res := Multiply(a, b, s)
		if res.Peak > s {
			t.Fatalf("S=%d: peak residency %d exceeds capacity", s, res.Peak)
		}
		if res.Peak != res.TileA*res.TileB+res.TileA+1 {
			t.Fatalf("S=%d: peak %d, want ab+a+1 = %d", s, res.Peak,
				res.TileA*res.TileB+res.TileA+1)
		}
	}
}

func TestMultiplyIOAboveTheorem1(t *testing.T) {
	// Measured I/O can never beat the Theorem 1 lower bound.
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(24)
		k := 1 + r.Intn(24)
		n := 1 + r.Intn(24)
		s := 6 + r.Intn(60)
		a := matrix.Random(m, k, rng)
		b := matrix.Random(k, n, rng)
		res := Multiply(a, b, s)
		return float64(res.IO()) >= bound.SequentialLowerBound(m, n, k, s)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMultiplyNearOptimal(t *testing.T) {
	// §5.2.7: the schedule's I/O over the lower bound approaches 1 as S
	// grows (up to tile-boundary effects on divisible problems).
	m, n, k := 64, 64, 64
	rng := rand.New(rand.NewSource(5))
	a := matrix.Random(m, k, rng)
	b := matrix.Random(k, n, rng)
	prevRatio := 10.0
	for _, s := range []int{20, 80, 350, 1100} {
		res := Multiply(a, b, s)
		lb := bound.SequentialLowerBound(m, n, k, s)
		ratio := float64(res.IO()) / lb
		if ratio < 1 {
			t.Fatalf("S=%d: IO %d below bound %v", s, res.IO(), lb)
		}
		if ratio > prevRatio*1.05 {
			t.Fatalf("S=%d: ratio %v did not improve from %v", s, ratio, prevRatio)
		}
		prevRatio = ratio
	}
	if prevRatio > 1.35 {
		t.Fatalf("largest-memory ratio %v still far from optimal", prevRatio)
	}
}

func TestMultiplyTiledInfeasiblePanics(t *testing.T) {
	a := matrix.New(4, 4)
	b := matrix.New(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected infeasible-tile panic")
		}
	}()
	MultiplyTiled(a, b, 10, 3, 3) // 9+3+1 = 13 > 10
}

func TestMultiplyShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	Multiply(matrix.New(2, 3), matrix.New(4, 2), 8)
}

func TestMultiplyDoesNotMutateInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := matrix.Random(6, 6, rng)
	b := matrix.Random(6, 6, rng)
	ac, bc := a.Clone(), b.Clone()
	Multiply(a, b, 10)
	if matrix.MaxDiff(a, ac) != 0 || matrix.MaxDiff(b, bc) != 0 {
		t.Fatal("inputs mutated")
	}
}
