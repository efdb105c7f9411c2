package baselines

import (
	"math/rand"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

// TestSUMMAOverlapBitwiseIdentical mirrors COSMA's pipeline identity
// guarantee for the 2D baseline: the prefetching round loop must
// produce a bit-for-bit identical product to the synchronous one.
func TestSUMMAOverlapBitwiseIdentical(t *testing.T) {
	a := matrix.Random(96, 112, rand.New(rand.NewSource(5)))
	b := matrix.Random(112, 80, rand.New(rand.NewSource(6)))
	for _, p := range []int{4, 8, 16} {
		s := 3 * 96 * 80 / p
		cSync, _, err := algo.Run(summa.Plan, algo.Config{}, nil, a, b, p, s)
		if err != nil {
			t.Fatalf("p=%d sync: %v", p, err)
		}
		cPipe, _, err := algo.Run(summa.Plan, algo.Config{Overlap: true}, nil, a, b, p, s)
		if err != nil {
			t.Fatalf("p=%d overlap: %v", p, err)
		}
		if cSync.Rows != cPipe.Rows || cSync.Cols != cPipe.Cols {
			t.Fatalf("p=%d: shape mismatch", p)
		}
		for i := range cSync.Data {
			if cSync.Data[i] != cPipe.Data[i] {
				t.Fatalf("p=%d: element %d differs bitwise: %v vs %v", p, i, cSync.Data[i], cPipe.Data[i])
			}
		}
	}
}

// TestSUMMAOverlapCritPathNotWorse runs SUMMA both ways on the timed
// transport: pipelining must never lengthen the measured critical path,
// and the report must record the executed mode.
func TestSUMMAOverlapCritPathNotWorse(t *testing.T) {
	const n, p = 256, 16
	s := 3 * n * n / p
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
