package core

import (
	"math/rand"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestCOSMAOverlapBitwiseIdentical runs the pipelined and the
// synchronous schedules over uneven shapes and several machine sizes
// and demands bit-for-bit equal products: the pipeline reorders
// communication only, never the kernel call sequence.
func TestCOSMAOverlapBitwiseIdentical(t *testing.T) {
	a := matrix.Random(96, 112, rng(1))
	b := matrix.Random(112, 80, rng(2))
	for _, p := range []int{4, 8, 16} {
		s := 3 * 96 * 80 / p // squeeze into the multi-round regime
		cSync, _, err := algo.Run(Plan, algo.Config{Overlap: false}, nil, a, b, p, s)
		if err != nil {
			t.Fatalf("p=%d sync: %v", p, err)
		}
		cPipe, _, err := algo.Run(Plan, algo.Config{Overlap: true}, nil, a, b, p, s)
		if err != nil {
			t.Fatalf("p=%d overlap: %v", p, err)
		}
		assertBitwiseEqual(t, cSync, cPipe, p)
	}
}

// TestCOSMAOverlapCritPathLower is the paper-facing acceptance
// property (§7.3, Figure 12): at m=n=k=512 on p=16 timed ranks the
// pipelined schedule's measured critical path is strictly below the
// synchronous one's, and respects Model.Time's overlap semantics —
// communication hides up to (but never below) the per-rank compute
// time, so the overlapped critical path still dominates the pure
// compute term.
func TestCOSMAOverlapCritPathLower(t *testing.T) {
	const n, p = 512, 16
	s := 3 * n * n / p
	net := machine.PizDaintNet()
	a := matrix.Random(n, n, rng(3))
	b := matrix.Random(n, n, rng(4))

	run := func(overlap bool) (*matrix.Dense, *algo.Report) {
		out, rep, err := algo.Run(Plan, algo.Config{Overlap: overlap}, &net, a, b, p, s)
		if err != nil {
			t.Fatalf("overlap=%v: %v", overlap, err)
		}
		return out, rep
	}
	cSync, repSync := run(false)
	cPipe, repPipe := run(true)

	if repPipe.CritPathTime >= repSync.CritPathTime {
		t.Errorf("overlapped critical path %v is not strictly below synchronous %v",
			repPipe.CritPathTime, repSync.CritPathTime)
	}

	// Model.Time's overlap semantics: the hidden communication cannot push
	// the critical path below the busiest rank's compute time.
	pl, err := Plan(algo.Config{}, n, n, n, p, s)
	if err != nil {
		t.Fatal(err)
	}
	d := pl.Geometry
	computeOnly := net.Gamma * 2 * float64(d.DomainM) * float64(d.DomainN) * float64(d.DomainK)
	if repPipe.CritPathTime < computeOnly {
		t.Errorf("overlapped critical path %v below the compute-only bound %v: overlap hid compute, not just communication",
			repPipe.CritPathTime, computeOnly)
	}

	// Both reports carry both analytic predictions, overlapped ≤ serial.
	for _, rep := range []*algo.Report{repSync, repPipe} {
		if rep.PredictedOverlapTime <= 0 || rep.PredictedTime <= 0 {
			t.Fatalf("missing predictions in report: %+v", rep)
		}
		if rep.PredictedOverlapTime > rep.PredictedTime {
			t.Errorf("predicted overlap time %v exceeds serial %v",
				rep.PredictedOverlapTime, rep.PredictedTime)
		}
	}
	if repSync.Overlap || !repPipe.Overlap {
		t.Errorf("Overlap flags: sync=%v pipe=%v, want false/true", repSync.Overlap, repPipe.Overlap)
	}

	// The timed pipelined run must still produce the exact product.
	assertBitwiseEqual(t, cSync, cPipe, p)
}

func assertBitwiseEqual(t *testing.T, want, got *matrix.Dense, p int) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("p=%d: shape %dx%d vs %dx%d", p, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("p=%d: element %d differs bitwise: %v vs %v", p, i, want.Data[i], got.Data[i])
		}
	}
}
