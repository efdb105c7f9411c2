package cosma

import (
	"context"
	"strings"
	"testing"
)

// TestPredictConsumesCalibratedGamma is the acceptance guard for
// the measured-γ path: a plan priced under a faster measured γ must
// predict a strictly lower runtime, and the gap must be exactly
// the compute term's change (the α and β terms are untouched).
func TestPredictConsumesCalibratedGamma(t *testing.T) {
	const m, n, k, p, s = 1024, 1024, 1024, 16, 1 << 18
	base := PizDaintNetwork()
	fast := base.WithGamma(base.Gamma / 10)

	slowEng, err := NewEngine(WithProcs(p), WithMemory(s), WithNetwork(base))
	if err != nil {
		t.Fatal(err)
	}
	fastEng, err := NewEngine(WithProcs(p), WithMemory(s), WithNetwork(fast))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := slowEng.Plan(context.Background(), m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	fastPlan, err := fastEng.Plan(context.Background(), m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	tSlow, tFast := plan.Model().Time(base, false), fastPlan.Model().Time(fast, false)
	if tFast >= tSlow {
		t.Fatalf("faster measured γ did not lower prediction: %g ≥ %g", tFast, tSlow)
	}

	wantGap := plan.Model().MaxFlops * (base.Gamma - fast.Gamma)
	if gap := tSlow - tFast; gap < wantGap*0.999 || gap > wantGap*1.001 {
		t.Errorf("prediction gap %g, want the compute term change %g", gap, wantGap)
	}
	if !strings.HasSuffix(fast.Name, "+cal") {
		t.Errorf("calibrated network name %q not tagged", fast.Name)
	}
}

// TestCalibrateFeedsEngine runs a real (tiny) calibration end to end:
// measured γ → network → engine plan → prediction, the workflow cmd/cosma's
// -calibrate flag performs.
func TestCalibrateFeedsEngine(t *testing.T) {
	cal := Calibrate(64, 1)
	if cal.Gamma <= 0 {
		t.Fatalf("calibration returned γ = %g", cal.Gamma)
	}
	net := PizDaintNetwork().WithGamma(cal.Gamma)
	eng, err := NewEngine(WithProcs(4), WithMemory(1<<16), WithNetwork(net))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := eng.Plan(context.Background(), 256, 256, 256)
	if err != nil {
		t.Fatal(err)
	}
	pt := plan.Model().Time(net, false)
	if pt <= 0 {
		t.Fatalf("predicted time %g", pt)
	}
	// The compute term must reflect the measured rate: at least
	// γ·2mnk/p seconds.
	if minCompute := cal.Gamma * 2 * 256 * 256 * 256 / 4; pt < minCompute {
		t.Errorf("prediction %g below calibrated compute floor %g", pt, minCompute)
	}
}
