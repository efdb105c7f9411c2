package baselines

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/matrix"
	"cosma/internal/workload"
)

// gridPolicies are the three planners that differ only in the grid they
// hand core.NewPlan.
func gridPolicies() []algo.Spec {
	return []algo.Spec{cosma, summa, c25d}
}

// TestModelWordsEqualMeasured holds the plan's count to the machine's
// counters: for the three grid policies the modelled average and maximum
// received words are the measured ones — ==, not a tolerance — on the
// seeded catalog, the three benchmark shapes, ragged dimensions and
// prime rank counts; so is the busiest rank's message count on the grids
// whose broadcasts have no relay.
func TestModelWordsEqualMeasured(t *testing.T) {
	type shape struct{ m, n, k, p, s int }
	shapes := []shape{
		{300, 200, 100, 12, 1 << 20},
		{97, 61, 203, 13, 1 << 20},
		{64, 64, 64, 27, 1 << 20},
		{33, 500, 77, 24, 1 << 20},
		{1000, 30, 30, 10, 1 << 20},
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
	for _, c := range shapes {
		a := matrix.Random(c.m, c.k, rng)
		b := matrix.Random(c.k, c.n, rng)
		for _, pl := range gridPolicies() {
			_, rep, err := algo.Run(pl.Plan, algo.Config{}, nil, a, b, c.p, c.s)
			if err != nil {
				t.Fatalf("%s %+v: %v", pl.Display, c, err)
			}
			if rep.AvgRecv != rep.Model.AvgRecv || float64(rep.MaxRecv) != rep.Model.MaxRecv {
				t.Errorf("%s %+v grid %s: measured avg %v max %d, model avg %v max %v",
					pl.Display, c, rep.Grid, rep.AvgRecv, rep.MaxRecv, rep.Model.AvgRecv, rep.Model.MaxRecv)
			}
			// Messages are == too where no broadcast has a tree relay (both
			// groups ≤ 2 members); with Pm or Pn > 2 (square-tight: 384
			// measured, 256 modelled) MaxMsgs stays a receive-side estimate
			// until ROADMAP item 1.
			var pm, pn, pk int
			if _, err := fmt.Sscanf(rep.Grid, "[%d×%d×%d]", &pm, &pn, &pk); err != nil {
				t.Fatalf("%s grid %q: %v", pl.Display, rep.Grid, err)
			}
			if pm <= 2 && pn <= 2 && float64(rep.MaxMsgs) != rep.Model.MaxMsgs {
				t.Errorf("%s %+v grid %s: busiest rank exchanged %d messages, model %v",
					pl.Display, c, rep.Grid, rep.MaxMsgs, rep.Model.MaxMsgs)
			}
		}
	}
}

// TestSameGridSameModel: a model is a property of the schedule, so three
// policies that pick the same grid predict the same run. At 1024³,
// p = 16, S = 69 632 all three land on [4×4×1].
func TestSameGridSameModel(t *testing.T) {
	const n, p, s = 1024, 16, 69632
	net := machine.PizDaintNet()
	a := matrix.Random(n, n, rand.New(rand.NewSource(1)))
	b := matrix.Random(n, n, rand.New(rand.NewSource(2)))
	var ref *algo.Report
	for _, pl := range gridPolicies() {
		_, rep, err := algo.Run(pl.Plan, algo.Config{}, &net, a, b, p, s)
		if err != nil {
			t.Fatalf("%s: %v", pl.Display, err)
		}
		if ref == nil {
			ref = rep
			continue
		}
		mod := rep.Model
		mod.Name = ref.Model.Name
		if rep.Grid != ref.Grid || mod != ref.Model || rep.PredictedTime != ref.PredictedTime {
			t.Errorf("%s on %s: model %+v predicts %v s; COSMA on %s: %+v predicts %v s",
				pl.Display, rep.Grid, mod, rep.PredictedTime, ref.Grid, ref.Model, ref.PredictedTime)
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
