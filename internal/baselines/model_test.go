package baselines

import (
	"errors"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/machine"
)

// TestSameGridSameModel: a model is a property of the schedule, so
// policies that pick the same grid predict the same run. At 1024³,
// p = 16, S = 69 632 COSMA, SUMMA and 2.5D land on [4×4×1] (CARMA cuts C
// in two blocks there); at 512³, p = 8 COSMA and CARMA land on [2×2×2].
// It reads the plans compiled for pizdaint, whose models and overlap a
// run's report carries unchanged (TestModelWordsEqualMeasured).
func TestSameGridSameModel(t *testing.T) {
	net := machine.PizDaintNet()
	for _, c := range []struct {
		n, p, s  int
		policies []algo.Spec
	}{
		{1024, 16, 69632, []algo.Spec{cosma, summa, c25d}},
		{512, 8, 1 << 20, []algo.Spec{cosma, carma}},
	} {
		var ref *algo.Plan
		for _, pl := range c.policies {
			plan, err := pl.Plan(algo.Config{Network: &net}, c.n, c.n, c.n, c.p, c.s)
			if err != nil {
				t.Fatalf("%s: %v", pl.Display, err)
			}
			if ref == nil {
				ref = plan
				continue
			}
			mod := plan.Model
			mod.Name = ref.Model.Name
			if got, want := plan.Model.Time(net, plan.Overlap), ref.Model.Time(net, ref.Overlap); plan.Grid != ref.Grid || mod != ref.Model || got != want {
				t.Errorf("%s on %s: model %+v predicts %v s; COSMA on %s: %+v predicts %v s",
					pl.Display, plan.Grid, mod, got, ref.Grid, ref.Model, want)
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
