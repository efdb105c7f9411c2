package baselines

import (
	"math/rand"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

// TestSUMMAOverlapCritPathNotWorse runs SUMMA both ways on the timed
// transport, at an S with room for two panel pairs of its four rounds:
// pipelining must never lengthen the measured critical path, and the
// report must record the executed mode.
func TestSUMMAOverlapCritPathNotWorse(t *testing.T) {
	const n, p = 256, 16
	s := 8 * n * n / p
	net := machine.PizDaintNet()
	a := matrix.Random(n, n, rand.New(rand.NewSource(7)))
	b := matrix.Random(n, n, rand.New(rand.NewSource(8)))
	_, repSync, err := algo.Run(summa.Plan, algo.Config{}, &net, a, b, p, s)
	if err != nil {
		t.Fatal(err)
	}
	_, repPipe, err := algo.Run(summa.Plan, algo.Config{Overlap: true}, &net, a, b, p, s)
	if err != nil {
		t.Fatal(err)
	}
	if repPipe.CritPathTime > repSync.CritPathTime {
		t.Errorf("overlapped critical path %v exceeds synchronous %v",
			repPipe.CritPathTime, repSync.CritPathTime)
	}
	if repSync.Overlap || !repPipe.Overlap {
		t.Errorf("Overlap flags: sync=%v pipe=%v, want false/true", repSync.Overlap, repPipe.Overlap)
	}
}
