package baselines

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

// The rows of the table, for the tests that run one algorithm.
var cosma, summa, c25d, carma, cannon = Algorithms[0], Algorithms[1], Algorithms[2], Algorithms[3], Algorithms[4]

func mulRef(a, b *matrix.Dense) *matrix.Dense {
	c := matrix.New(a.Rows, b.Cols)
	matrix.NewKernel(1).Mul(c, a, b)
	return c
}

func checkCorrect(t *testing.T, name string, run func() (*matrix.Dense, *algo.Report, error), a, b *matrix.Dense, k int) *algo.Report {
	t.Helper()
	got, rep, err := run()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if d := matrix.MaxDiff(got, mulRef(a, b)); d > 1e-9*float64(k) {
		t.Fatalf("%s: max diff %g (grid %s)", name, d, rep.Model.Grid)
	}
	return rep
}

func TestNearSquare(t *testing.T) {
	cases := []struct{ p, pr, pc int }{
		{1, 1, 1}, {4, 2, 2}, {6, 2, 3}, {12, 3, 4}, {13, 1, 13}, {36, 6, 6},
	}
	for _, c := range cases {
		pr, pc := NearSquare(c.p)
		if pr != c.pr || pc != c.pc {
			t.Fatalf("NearSquare(%d) = %d×%d, want %d×%d", c.p, pr, pc, c.pr, c.pc)
		}
	}
}

func TestSUMMACorrectAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ m, k, n, p, s int }{
		{16, 16, 16, 4, 1 << 12},
		{24, 12, 18, 6, 1 << 12},
		{8, 64, 8, 4, 1 << 12},
		{13, 7, 29, 12, 1 << 12},
		{16, 16, 16, 1, 1 << 12},
		{32, 32, 32, 9, 200}, // tight memory → narrow panels
	} {
		a := matrix.Random(c.m, c.k, rng)
		b := matrix.Random(c.k, c.n, rng)
		checkCorrect(t, "summa", func() (*matrix.Dense, *algo.Report, error) {
			return algo.Run(summa.Plan, algo.Config{}, nil, a, b, c.p, c.s)
		}, a, b, c.k)
	}
}

func TestSUMMAMeasuredMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range []struct{ m, k, n, p, s int }{
		{16, 16, 16, 4, 1 << 12},
		{32, 64, 32, 16, 1 << 12},
		{24, 24, 48, 6, 1 << 12},
	} {
		a := matrix.Random(c.m, c.k, rng)
		b := matrix.Random(c.k, c.n, rng)
		_, rep, err := algo.Run(summa.Plan, algo.Config{}, nil, a, b, c.p, c.s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rep.AvgRecv-rep.Model.AvgRecv) > 1e-6*math.Max(1, rep.Model.AvgRecv) {
			t.Fatalf("%+v: measured %v, model %v", c, rep.AvgRecv, rep.Model.AvgRecv)
		}
	}
}

func TestCannonCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct{ m, k, n, p int }{
		{16, 16, 16, 4},
		{24, 12, 18, 9},
		{32, 16, 32, 16},
		{8, 8, 8, 1},
	} {
		a := matrix.Random(c.m, c.k, rng)
		b := matrix.Random(c.k, c.n, rng)
		checkCorrect(t, "cannon", func() (*matrix.Dense, *algo.Report, error) {
			return algo.Run(cannon.Plan, algo.Config{}, nil, a, b, c.p, 1<<12)
		}, a, b, c.k)
	}
}

func TestCannonMeasuredMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := matrix.Random(24, 12, rng)
	b := matrix.Random(12, 18, rng)
	_, rep, err := algo.Run(cannon.Plan, algo.Config{}, nil, a, b, 9, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.AvgRecv-rep.Model.AvgRecv) > 1e-6*rep.Model.AvgRecv {
		t.Fatalf("measured %v, model %v", rep.AvgRecv, rep.Model.AvgRecv)
	}
}

func TestCannonRejectsBadConfigs(t *testing.T) {
	a := matrix.New(8, 8)
	b := matrix.New(8, 8)
	if _, _, err := algo.Run(cannon.Plan, algo.Config{}, nil, a, b, 6, 1<<12); err == nil {
		t.Fatal("non-square p accepted")
	}
	if _, _, err := algo.Run(cannon.Plan, algo.Config{}, nil, a, b, 9, 1<<12); err == nil {
		t.Fatal("indivisible dims accepted")
	}
}

func TestC25DCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []struct{ m, k, n, p, s int }{
		{16, 16, 16, 8, 1 << 20},  // ample memory → c > 1
		{16, 16, 16, 8, 64},       // tiny memory → c = 1 (SUMMA)
		{8, 64, 8, 16, 1 << 20},   // largeK, deep replication
		{24, 12, 18, 12, 1 << 16}, // non-square p
		{9, 10, 11, 6, 1 << 16},   // awkward dims
	} {
		a := matrix.Random(c.m, c.k, rng)
		b := matrix.Random(c.k, c.n, rng)
		checkCorrect(t, "2.5d", func() (*matrix.Dense, *algo.Report, error) {
			return algo.Run(c25d.Plan, algo.Config{}, nil, a, b, c.p, c.s)
		}, a, b, c.k)
	}
}

func TestC25DLayerSelection(t *testing.T) {
	// Tiny memory: no replication possible.
	if _, _, c := Layers(1024, 1024, 1024, 64, 64); c != 1 {
		t.Fatalf("tiny memory picked c = %d", c)
	}
	// Huge memory: replication capped at p^(1/3).
	if _, _, c := Layers(64, 64, 64, 64, 1<<30); c != 4 {
		t.Fatalf("huge memory picked c = %d, want 4 = 64^(1/3)", c)
	}
	// c must divide p.
	_, _, c := Layers(128, 128, 128, 12, 1<<18)
	if 12%c != 0 {
		t.Fatalf("c = %d does not divide p", c)
	}
}

func TestC25DMeasuredMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, c := range []struct{ m, k, n, p, s int }{
		{16, 16, 16, 8, 1 << 20},
		{16, 64, 16, 16, 1 << 20},
		{32, 32, 32, 8, 300},
	} {
		a := matrix.Random(c.m, c.k, rng)
		b := matrix.Random(c.k, c.n, rng)
		_, rep, err := algo.Run(c25d.Plan, algo.Config{}, nil, a, b, c.p, c.s)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(rep.AvgRecv-rep.Model.AvgRecv) > 1e-6*math.Max(1, rep.Model.AvgRecv) {
			t.Fatalf("%+v (grid %s): measured %v, model %v", c, rep.Model.Grid, rep.AvgRecv, rep.Model.AvgRecv)
		}
	}
}

func TestCARMACorrectAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, c := range []struct{ m, k, n, p int }{
		{16, 16, 16, 8},
		{16, 16, 16, 1},
		{8, 64, 8, 8},   // largeK → k-splits and reductions
		{64, 8, 8, 16},  // largeM
		{13, 7, 29, 4},  // odd dims
		{16, 16, 16, 6}, // non-power-of-2: 2 idle ranks
		{4, 4, 4, 32},   // more ranks than sensible
	} {
		a := matrix.Random(c.m, c.k, rng)
		b := matrix.Random(c.k, c.n, rng)
		checkCorrect(t, "carma", func() (*matrix.Dense, *algo.Report, error) {
			return algo.Run(carma.Plan, algo.Config{}, nil, a, b, c.p, 1<<20)
		}, a, b, c.k)
	}
}

// TestCARMAReadsInputsInPlace: every rank reads its bands of A and B
// where the caller put them — views with Stride > Cols included — so a
// warm execute leaves nothing in the arena.
func TestCARMAReadsInputsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const m, n, k, p = 24, 20, 36, 8
	a := matrix.Random(m, k+5, rng).View(0, 3, m, k)
	b := matrix.Random(k, n, rng)
	pl, err := carma.Plan(algo.Config{}, m, n, k, p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	mach, arena := machine.New(p), algo.NewArena(p)
	for run := 0; run < 2; run++ {
		arena.Reset()
		got, err := pl.Execute(context.Background(), mach, arena, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxDiff(got, mulRef(a, b)); d > 1e-9*k {
			t.Fatalf("run %d: max diff %g", run, d)
		}
	}
	if got := arena.Retained(); got != 0 {
		t.Fatalf("arena retains %d words after a warm CARMA execute, want 0", got)
	}
}

func TestCARMAUsesPowerOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := matrix.Random(16, 16, rng)
	b := matrix.Random(16, 16, rng)
	_, rep, err := algo.Run(carma.Plan, algo.Config{}, nil, a, b, 12, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model.Used != 8 {
		t.Fatalf("used %d ranks of 12, want 8", rep.Model.Used)
	}
}

func TestCARMACorrectnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(16)
		k := 1 + r.Intn(16)
		n := 1 + r.Intn(16)
		p := 1 << r.Intn(5)
		a := matrix.Random(m, k, rng)
		b := matrix.Random(k, n, rng)
		got, _, err := algo.Run(carma.Plan, algo.Config{}, nil, a, b, p, 1<<20)
		if err != nil {
			return false
		}
		return matrix.MaxDiff(got, mulRef(a, b)) <= 1e-9*float64(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAllAlgorithmsAgreeOnOneProblem(t *testing.T) {
	// Integration: every algorithm must produce the same product.
	rng := rand.New(rand.NewSource(10))
	m, k, n, p := 24, 24, 24, 4
	a := matrix.Random(m, k, rng)
	b := matrix.Random(k, n, rng)
	want := mulRef(a, b)
	for _, r := range []algo.Spec{summa, cannon, c25d, carma} {
		got, _, err := algo.Run(r.Plan, algo.Config{}, nil, a, b, p, 1<<16)
		if err != nil {
			t.Fatalf("%s: %v", r.Display, err)
		}
		if d := matrix.MaxDiff(got, want); d > 1e-9*float64(k) {
			t.Fatalf("%s: max diff %g", r.Display, d)
		}
	}
}

func TestModelsScaleToPaperSizes(t *testing.T) {
	// All four baselines' models must evaluate at the paper's largest
	// configuration without executing anything.
	m, n, k, p, s := 16384, 16384, 16384, 18432, 1<<21
	for _, r := range []algo.Spec{summa, cannon, c25d, carma} {
		plan, err := r.Plan(algo.Config{}, m, n, k, p, s)
		if r.Name == "cannon" {
			// 18 432 is not a square: no torus, so no model of one.
			if !errors.Is(err, algo.ErrUnsupportedShape) {
				t.Fatalf("%s: err = %v, want ErrUnsupportedShape", r.Display, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", r.Display, err)
		}
		mod := plan.Model
		if mod.AvgRecv <= 0 || math.IsNaN(mod.AvgRecv) || math.IsInf(mod.AvgRecv, 0) {
			t.Fatalf("%s: bad model %+v", r.Display, mod)
		}
	}
}

// TestCOSMAWinsItsOwnComparisonAtPlentifulMemory pins what the fiber
// reduction's shape buys on the busiest rank: at 512³, p = 16, S = 2²⁰ on
// pizdaint COSMA's [2×2×4] critical path is below SUMMA's and 2.5D's
// and within 1.3 × Cannon's, and no rank receives more than 1.25 × the
// average (with a tree on the fiber: 7.75 ms against 5.93, 5.93 and
// 4.11, and 2.0 ×).
func TestCOSMAWinsItsOwnComparisonAtPlentifulMemory(t *testing.T) {
	const n, p, s = 512, 16, 1 << 20
	net := machine.PizDaintNet()
	a := matrix.Random(n, n, rand.New(rand.NewSource(5)))
	b := matrix.Random(n, n, rand.New(rand.NewSource(6)))
	crit := func(pl algo.Spec) *algo.Report {
		_, rep, err := algo.Run(pl.Plan, algo.Config{}, &net, a, b, p, s)
		if err != nil {
			t.Fatalf("%s: %v", pl.Display, err)
		}
		return rep
	}
	cosma := crit(cosma)
	if cosma.Model.Grid != "[2×2×4]" {
		t.Fatalf("COSMA fitted %s, want [2×2×4]", cosma.Model.Grid)
	}
	for _, pl := range []algo.Spec{summa, c25d} {
		if rep := crit(pl); cosma.CritPathTime >= rep.CritPathTime {
			t.Errorf("COSMA's critical path %.4g s is not below %s's %.4g", cosma.CritPathTime, pl.Display, rep.CritPathTime)
		}
	}
	if cannon := crit(cannon); cosma.CritPathTime > 1.3*cannon.CritPathTime {
		t.Errorf("COSMA's critical path %.4g s is above 1.3 × Cannon's %.4g", cosma.CritPathTime, cannon.CritPathTime)
	}
	if float64(cosma.MaxRecv) > 1.25*cosma.AvgRecv {
		t.Errorf("COSMA's busiest rank receives %d words, above 1.25 × the average %v", cosma.MaxRecv, cosma.AvgRecv)
	}
}
