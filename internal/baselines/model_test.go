package baselines

import (
	"errors"
	"math/rand"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/matrix"
	"cosma/internal/workload"
)

// gridPolicies are the four planners that differ only in the grid they
// hand core (and CARMA in its C blocks).
func gridPolicies() []algo.Spec {
	return []algo.Spec{cosma, summa, c25d, carma}
}

// TestModelWordsEqualMeasured holds the plan's count to the machine's
// counters: for the four grid policies the modelled average and maximum
// received words are the measured ones — ==, not a tolerance — on the
// seeded catalog, the three benchmark shapes, ragged dimensions, prime
// rank counts, a C tile smaller than its fiber (1×2×64, p = 8: empty
// reduction blocks) and CARMA plans of several C blocks; so is the
// busiest rank's message count, for them and for Cannon, wherever a
// baseline plans at all. The same holds for plans compiled and executed
// on pizdaint, whose A panels travel in row blocks.
func TestModelWordsEqualMeasured(t *testing.T) {
	type shape struct{ m, n, k, p, s int }
	shapes := []shape{
		{300, 200, 100, 12, 1 << 20},
		{97, 61, 203, 13, 1 << 20},
		{64, 64, 64, 27, 1 << 20},
		{33, 500, 77, 24, 1 << 20},
		{1000, 30, 30, 10, 1 << 20},
		{1, 2, 64, 8, 1 << 20},
		{256, 256, 256, 64, 3072}, // CARMA: C in blocks
		{97, 61, 203, 16, 600},    // CARMA: C in ragged blocks
	}
	for i, d := range workload.NewGenerator(workload.GenConfig{Seed: 1, Shapes: 12}).Catalog() {
		shapes = append(shapes, shape{d.M, d.N, d.K, 4 + 3*i, 1 << (12 + i%3*4)})
	}
	if !testing.Short() { // the benchmark's square-roomy, square-tight and tall-k
		shapes = append(shapes,
			shape{1024, 1024, 1024, 16, 1 << 20},
			shape{1024, 1024, 1024, 16, 69632},
			shape{128, 128, 65536, 16, 1 << 18})
	}
	rng := rand.New(rand.NewSource(25))
	blocked := 0
	for _, c := range shapes {
		a := matrix.Random(c.m, c.k, rng)
		b := matrix.Random(c.k, c.n, rng)
		for _, pl := range append(gridPolicies(), cannon) {
			_, rep, err := algo.Run(pl.Plan, algo.Config{}, nil, a, b, c.p, c.s)
			if errors.Is(err, algo.ErrUnsupportedShape) && pl.Name != cosma.Name {
				continue // SUMMA's 2D grid on 1×2×64, Cannon off a square p
			}
			if err != nil {
				t.Fatalf("%s %+v: %v", pl.Display, c, err)
			}
			if pl.Name == carma.Name {
				if plan, _ := pl.Plan(algo.Config{}, c.m, c.n, c.k, c.p, c.s); plan.Geometry.Blocks > 1 {
					blocked++
				}
			}
			if pl.Name != cannon.Name && (rep.AvgRecv != rep.Model.AvgRecv || float64(rep.MaxRecv) != rep.Model.MaxRecv) {
				t.Errorf("%s %+v grid %s: measured avg %v max %d, model avg %v max %v",
					pl.Display, c, rep.Model.Grid, rep.AvgRecv, rep.MaxRecv, rep.Model.AvgRecv, rep.Model.MaxRecv)
			}
			if float64(rep.MaxMsgs) != rep.Model.MaxMsgs {
				t.Errorf("%s %+v grid %s: busiest rank exchanged %d messages, model %v",
					pl.Display, c, rep.Model.Grid, rep.MaxMsgs, rep.Model.MaxMsgs)
			}
		}
	}

	if blocked == 0 {
		t.Error("no CARMA plan runs in C blocks: the blocks' sum goes unchecked")
	}

	// Compiled under pizdaint, synchronous plans on an A tree two levels
	// deep broadcast their A panels in row blocks; the model counts every
	// block's messages.
	net := machine.PizDaintNet()
	timed := []shape{{300, 200, 100, 12, 20000}, {256, 256, 256, 16, 6000}, {256, 256, 256, 64, 3072}}
	if !testing.Short() { // square-tight: three bands
		timed = append(timed, shape{1024, 1024, 1024, 16, 69632})
	}
	banded := 0
	for _, c := range timed {
		a := matrix.Random(c.m, c.k, rng)
		b := matrix.Random(c.k, c.n, rng)
		for _, pl := range gridPolicies() {
			plan, err := pl.Plan(algo.Config{Network: &net}, c.m, c.n, c.k, c.p, c.s)
			if err != nil {
				t.Fatalf("%s %+v: %v", pl.Display, c, err)
			}
			if plan.Geometry.Bands > 1 {
				banded++
			}
			_, rep, err := algo.Run(pl.Plan, algo.Config{}, &net, a, b, c.p, c.s)
			if err != nil {
				t.Fatalf("%s %+v: %v", pl.Display, c, err)
			}
			if rep.Model != plan.Model || rep.AvgRecv != rep.Model.AvgRecv || float64(rep.MaxRecv) != rep.Model.MaxRecv ||
				float64(rep.MaxMsgs) != rep.Model.MaxMsgs {
				t.Errorf("%s %+v on %s, %d bands: measured avg %v max %d msgs %d, model %+v", pl.Display, c, net.Name,
					plan.Geometry.Bands, rep.AvgRecv, rep.MaxRecv, rep.MaxMsgs, rep.Model)
			}
		}
	}
	if banded == 0 {
		t.Error("no timed plan is banded: the band count goes unchecked")
	}
}

// TestSameGridSameModel: a model is a property of the schedule, so
// policies that pick the same grid predict the same run. At 1024³,
// p = 16, S = 69 632 COSMA, SUMMA and 2.5D land on [4×4×1] (CARMA cuts C
// in two blocks there); at 512³, p = 8 COSMA and CARMA land on [2×2×2].
func TestSameGridSameModel(t *testing.T) {
	net := machine.PizDaintNet()
	for _, c := range []struct {
		n, p, s  int
		policies []algo.Spec
	}{
		{1024, 16, 69632, []algo.Spec{cosma, summa, c25d}},
		{512, 8, 1 << 20, []algo.Spec{cosma, carma}},
	} {
		a := matrix.Random(c.n, c.n, rand.New(rand.NewSource(1)))
		b := matrix.Random(c.n, c.n, rand.New(rand.NewSource(2)))
		var ref *algo.Report
		for _, pl := range c.policies {
			_, rep, err := algo.Run(pl.Plan, algo.Config{}, &net, a, b, c.p, c.s)
			if err != nil {
				t.Fatalf("%s: %v", pl.Display, err)
			}
			if ref == nil {
				ref = rep
				continue
			}
			mod := rep.Model
			mod.Name = ref.Model.Name
			if got, want := rep.PredictedAsExecuted(), ref.PredictedAsExecuted(); rep.Model.Grid != ref.Model.Grid || mod != ref.Model || got != want {
				t.Errorf("%s on %s: model %+v predicts %v s; COSMA on %s: %+v predicts %v s",
					pl.Display, rep.Model.Grid, mod, got, ref.Model.Grid, ref.Model, want)
			}
		}
	}
}

// TestPlanRefusalsAreTyped: a valid shape an algorithm cannot schedule is
// refused with ErrUnsupportedShape; an invalid argument is not.
func TestPlanRefusalsAreTyped(t *testing.T) {
	for _, c := range []struct {
		name          string
		pl            algo.Spec
		m, n, k, p, s int
		unsupported   bool
	}{
		{"Cannon on a non-square p", cannon, 12, 12, 12, 6, 1 << 12, true},
		{"Cannon with 3 ∤ dims", cannon, 10, 10, 10, 9, 1 << 12, true},
		{"SUMMA's 4×4 grid on m = 2", summa, 2, 64, 64, 16, 1 << 12, true},
		{"2.5D's grid on m = 1", c25d, 1, 64, 64, 16, 1 << 12, true},
		{"SUMMA with m = 0", summa, 0, 64, 64, 16, 1 << 12, false},
		{"COSMA with k = 0", cosma, 8, 8, 0, 4, 1 << 12, false},
		{"CARMA with n = 0", carma, 8, 0, 8, 4, 1 << 12, false},
	} {
		_, err := c.pl.Plan(algo.Config{}, c.m, c.n, c.k, c.p, c.s)
		if err == nil {
			t.Errorf("%s: planned", c.name)
		} else if errors.Is(err, algo.ErrUnsupportedShape) != c.unsupported {
			t.Errorf("%s: errors.Is(%v, ErrUnsupportedShape) = %v", c.name, err, !c.unsupported)
		}
	}
}
