package baselines

import (
	"context"
	"math/rand"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/matrix"
	"cosma/internal/workload"
)

// The rows of the table, for the tests that run one algorithm.
var cosma, summa, c25d, carma = Algorithms[0], Algorithms[1], Algorithms[2], Algorithms[3]

func mulRef(a, b *matrix.Dense) *matrix.Dense {
	c := matrix.New(a.Rows, b.Cols)
	matrix.NewKernel(1).Mul(c, a, b)
	return c
}

// TestCARMAReadsInputsInPlace: every rank reads its pieces of A and B
// where the caller put them — A a view with Stride > Cols — for CARMA in
// one C block and in four, and for COSMA on a scaled-down tall-k on a
// k-parallel grid. Each runs twice on one machine and arena, so the
// second run sums in the C tiles the first released to the pool.
func TestCARMAReadsInputsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, c := range []struct {
		row           algo.Spec
		m, n, k, p, s int
		blocks        int
	}{
		{carma, 24, 20, 36, 8, 1 << 20, 1},
		{carma, 24, 20, 36, 8, 100, 4},
		{cosma, 64, 64, 16384, 8, 1 << 16, 1},
	} {
		a := matrix.Random(c.m, c.k+5, rng).View(0, 3, c.m, c.k)
		b := matrix.Random(c.k, c.n, rng)
		want := mulRef(a, b)
		pl, err := c.row.Plan(algo.Config{}, c.m, c.n, c.k, c.p, c.s)
		if err != nil {
			t.Fatal(err)
		}
		d := pl.Geometry
		if d.Blocks != c.blocks {
			t.Fatalf("%s S = %d: grid %s, %d C blocks, want %d", pl.Name, c.s, pl.Grid, d.Blocks, c.blocks)
		}
		if c.row.Name == cosma.Name && d.GridPk < 2 {
			t.Fatalf("grid %s is not k-parallel; the shape no longer stands in for tall-k", pl.Grid)
		}
		mach, arena := machine.New(c.p), algo.NewArena(c.p)
		for run := 0; run < 2; run++ {
			got, err := pl.Execute(context.Background(), mach, arena, a, b)
			if err != nil {
				t.Fatal(err)
			}
			if diff := matrix.MaxDiff(got, want); diff > 1e-9*float64(c.k) {
				t.Fatalf("%s S = %d run %d: max diff %g", pl.Name, c.s, run, diff)
			}
		}
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

// TestCOSMAWinsItsOwnComparisonAtPlentifulMemory pins what the fiber
// reduction's shape buys on the busiest rank: at 512³, p = 16, S = 2²⁰ on
// pizdaint COSMA's [2×2×4] critical path is below SUMMA's and 2.5D's,
// and no rank receives more than 1.25 × the average (3.02 ms against
// 4.73 and 4.21; the fiber reduce-scatters C, so every rank receives
// the average).
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
	if float64(cosma.MaxRecv) > 1.25*cosma.AvgRecv {
		t.Errorf("COSMA's busiest rank receives %d words, above 1.25 × the average %v", cosma.MaxRecv, cosma.AvgRecv)
	}
}

// TestCOSMAOneGridNeverMoreWords plans the benchmark's three engine
// shapes and the twelve-shape serve catalog: COSMA compiles the same grid
// on every transport, overlapped or not (its score, the busiest rank's
// words, moves with no cfg), and its busiest rank receives no more than
// SUMMA's, 2.5D's or CARMA's.
func TestCOSMAOneGridNeverMoreWords(t *testing.T) {
	type problem struct{ m, n, k, p, s int }
	probs := []problem{
		{1024, 1024, 1024, 16, 1 << 20},
		{1024, 1024, 1024, 16, 69632},
		{128, 128, 65536, 16, 1 << 18},
	}
	gen := workload.NewGenerator(workload.GenConfig{Seed: 1, Shapes: 12, ZipfS: 1.1, MinDim: 32, MaxDim: 192})
	for _, d := range gen.Catalog() {
		probs = append(probs, problem{d.M, d.N, d.K, 4, 110592})
	}
	piz, eth, shm := machine.PizDaintNet(), machine.CommodityEthernet(), machine.SharedMemory()
	for _, c := range probs {
		plan := func(pl algo.Spec, cfg algo.Config) algo.Model {
			t.Helper()
			p, err := pl.Plan(cfg, c.m, c.n, c.k, c.p, c.s)
			if err != nil {
				t.Fatalf("%s %+v: %v", pl.Display, c, err)
			}
			return p.Model
		}
		ref := plan(cosma, algo.Config{})
		for _, net := range []*machine.NetworkParams{nil, &piz, &eth, &shm} {
			for _, overlap := range []bool{true, false} {
				if got := plan(cosma, algo.Config{Overlap: overlap, Network: net}); got.Grid != ref.Grid {
					t.Errorf("%+v: COSMA compiles %s on network %v, overlap %v, and %s on a counting machine",
						c, got.Grid, net, overlap, ref.Grid)
				}
			}
		}
		for _, pl := range []algo.Spec{summa, c25d, carma} {
			if mod := plan(pl, algo.Config{}); ref.MaxRecv > mod.MaxRecv {
				t.Errorf("%+v: COSMA's %s receives %v words on its busiest rank, %s's %s %v",
					c, ref.Grid, ref.MaxRecv, pl.Display, mod.Grid, mod.MaxRecv)
			}
		}
	}
}
