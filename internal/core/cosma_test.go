package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cosma/internal/algo"
	"cosma/internal/bound"
	"cosma/internal/grid"
	"cosma/internal/layout"
	"cosma/internal/matrix"
)

func mulRef(a, b *matrix.Dense) *matrix.Dense {
	c := matrix.New(a.Rows, b.Cols)
	matrix.Mul(c, a, b)
	return c
}

func TestCOSMACorrectAcrossShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name       string
		m, k, n, p int
		s          int
	}{
		{"square p4", 16, 16, 16, 4, 1 << 10},
		{"square p8 limited", 32, 32, 32, 8, 300},
		{"largeK", 8, 64, 8, 8, 1 << 10},
		{"largeM", 64, 8, 8, 8, 1 << 10},
		{"flat", 32, 4, 32, 8, 1 << 10},
		{"single rank", 8, 8, 8, 1, 1 << 10},
		{"odd p", 24, 24, 24, 7, 1 << 10},
		{"p65 fig5", 16, 16, 16, 65, 1 << 10},
		{"prime dims", 13, 17, 11, 6, 1 << 10},
		{"tile smaller than its fiber", 1, 64, 2, 8, 1 << 10}, // empty shares of C
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := matrix.Random(c.m, c.k, rng)
			b := matrix.Random(c.k, c.n, rng)
			got, rep, err := algo.Run(Plan, algo.Config{}, nil, a, b, c.p, c.s)
			if err != nil {
				t.Fatal(err)
			}
			want := mulRef(a, b)
			if d := matrix.MaxDiff(got, want); d > 1e-9*float64(c.k) {
				t.Fatalf("max diff %g (grid %s)", d, rep.Grid)
			}
		})
	}
}

func TestCOSMAMeasuredMatchesModel(t *testing.T) {
	// On divisible problems the measured average received words must equal
	// the structural model exactly, and so must the busiest rank's words;
	// where a fiber reduces (Pk > 1) its messages too: the model counts
	// the reduction's Pk−1 blocks out and Pk−1 in.
	rng := rand.New(rand.NewSource(2))
	cases := []struct {
		m, k, n, p, s int
		grid          string
	}{
		{32, 32, 32, 8, 1 << 20, "[2×2×2]"},
		{16, 64, 16, 16, 1 << 20, "[1×2×8]"},
		{64, 16, 32, 8, 1 << 20, "[4×2×1]"},
		{32, 32, 32, 8, 600, "[2×2×2]"}, // limited memory → k-parallel grid
		// The benchmark's two reducing shapes at an eighth of their edge:
		// square-roomy's grid and tall-k's 14-deep fiber.
		{512, 512, 512, 16, 1 << 20, "[2×2×4]"},
		{128, 15360, 128, 15, 1 << 22, "[1×1×14]"},
	}
	for _, c := range cases {
		a := matrix.Random(c.m, c.k, rng)
		b := matrix.Random(c.k, c.n, rng)
		_, rep, err := algo.Run(Plan, algo.Config{}, nil, a, b, c.p, c.s)
		if err != nil {
			t.Fatal(err)
		}
		model := rep.Model
		if rep.Grid != c.grid {
			t.Fatalf("%+v: fitted %s", c, rep.Grid)
		}
		if math.Abs(rep.AvgRecv-model.AvgRecv) > 1e-6*math.Max(1, model.AvgRecv) {
			t.Fatalf("%+v: measured avg recv %v, model %v", c, rep.AvgRecv, model.AvgRecv)
		}
		if float64(rep.MaxRecv) != model.MaxRecv {
			t.Fatalf("%+v: measured max recv %d, model %v", c, rep.MaxRecv, model.MaxRecv)
		}
		if reduces := !strings.HasSuffix(c.grid, "×1]"); reduces && float64(rep.MaxMsgs) != model.MaxMsgs {
			t.Fatalf("%+v: busiest rank exchanged %d messages, model %v", c, rep.MaxMsgs, model.MaxMsgs)
		}
	}
}

func TestCOSMAVolumeNearLowerBound(t *testing.T) {
	// The measured per-rank volume must sit above the Theorem 2 bound and
	// within a small factor of it in the ample-memory (cubic) regime.
	m, n, k, p := 64, 64, 64, 8
	s := 1 << 20
	rng := rand.New(rand.NewSource(3))
	a := matrix.Random(m, k, rng)
	b := matrix.Random(k, n, rng)
	_, rep, err := algo.Run(Plan, algo.Config{}, nil, a, b, p, s)
	if err != nil {
		t.Fatal(err)
	}
	lb := bound.ParallelLowerBound(m, n, k, p, s)
	// Per-rank received words vs the bound (which counts words transferred
	// into each rank). Inputs of the CDAG start remote, so loading them is
	// part of Q; our measured volume excludes the rank's own initial share,
	// so it can be slightly below the bound's +S term but not far.
	if rep.AvgRecv > 3*lb {
		t.Fatalf("avg recv %v far above bound %v", rep.AvgRecv, lb)
	}
	if rep.AvgRecv < lb/3 {
		t.Fatalf("avg recv %v implausibly below bound %v", rep.AvgRecv, lb)
	}
}

func TestCOSMAIdleRanksDoNotCommunicate(t *testing.T) {
	// p = 65 on a square problem: one rank must stay idle (Figure 5) and
	// must have zero traffic.
	rng := rand.New(rand.NewSource(4))
	a := matrix.Random(16, 16, rng)
	b := matrix.Random(16, 16, rng)
	_, rep, err := algo.Run(Plan, algo.Config{}, nil, a, b, 65, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Used != 64 {
		t.Fatalf("used %d ranks, want 64", rep.Used)
	}
}

func TestCOSMAStepSize(t *testing.T) {
	if got := StepSize(160, 10, 10); got != 3 {
		t.Fatalf("StepSize(160,10,10) = %d, want 3", got)
	}
	if got := StepSize(5, 10, 10); got != 1 { // overcommitted memory
		t.Fatalf("stepSize small = %d, want 1", got)
	}
}

func TestSegmentsCoverAndAlign(t *testing.T) {
	aParts := layout.Split(12, 3) // cuts at 0,4,8
	bParts := layout.Split(12, 2) // cuts at 0,6
	segs := segments(12, aParts, bParts, 3)
	pos := 0
	for _, s := range segs {
		if s.Lo != pos {
			t.Fatalf("gap at %d in %v", pos, segs)
		}
		if s.Len() > 3 {
			t.Fatalf("segment %v exceeds step", s)
		}
		// No segment may straddle an ownership boundary.
		if ownerOf(aParts, s.Lo) != ownerOf(aParts, s.Hi-1) ||
			ownerOf(bParts, s.Lo) != ownerOf(bParts, s.Hi-1) {
			t.Fatalf("segment %v straddles owners", s)
		}
		pos = s.Hi
	}
	if pos != 12 {
		t.Fatalf("segments cover %d of 12", pos)
	}
}

func TestCOSMACorrectnessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(20)
		k := 1 + r.Intn(20)
		n := 1 + r.Intn(20)
		p := 1 + r.Intn(12)
		s := 16 + r.Intn(2000)
		a := matrix.Random(m, k, rng)
		b := matrix.Random(k, n, rng)
		got, _, err := algo.Run(Plan, algo.Config{}, nil, a, b, p, s)
		if err != nil {
			return false
		}
		return matrix.MaxDiff(got, mulRef(a, b)) <= 1e-9*float64(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// planModel is COSMA's model of a shape: the count its plan carries.
func planModel(t *testing.T, m, n, k, p, s int) algo.Model {
	t.Helper()
	plan, err := Plan(algo.Config{}, m, n, k, p, s)
	if err != nil {
		t.Fatal(err)
	}
	return plan.Model
}

// TestFitObjectiveIsTheCount ties grid.ModelVolume — Fit's O(1)
// objective — to the number the plan reports: on evenly divisible shapes
// it is the count's average over the ranks the grid uses, so the two
// cannot drift apart silently.
func TestFitObjectiveIsTheCount(t *testing.T) {
	for _, c := range []struct {
		g       grid.Grid
		m, n, k int
	}{
		{grid.Grid{Pm: 2, Pn: 2, Pk: 4}, 64, 64, 64},
		{grid.Grid{Pm: 3, Pn: 2, Pk: 3}, 96, 48, 72},
		{grid.Grid{Pm: 4, Pn: 4, Pk: 1}, 128, 128, 128},
		{grid.Grid{Pm: 1, Pn: 1, Pk: 8}, 16, 16, 512},
	} {
		plan, err := NewPlan("COSMA", c.g, c.m, c.n, c.k, c.g.Ranks(), 1<<20, false, false)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := plan.Model.AvgRecv, c.g.ModelVolume(c.m, c.n, c.k); got != want {
			t.Errorf("%v on %d×%d×%d: counted %v words/rank, Fit's objective says %v", c.g, c.m, c.n, c.k, got, want)
		}
	}
}

func TestCOSMAModelScalesToPaperSizes(t *testing.T) {
	// The model must evaluate instantly at the paper's largest runs and
	// decrease with p.
	s := 1 << 21
	prev := math.Inf(1)
	for _, p := range []int{2048, 4096, 8192, 16384} {
		mod := planModel(t, 16384, 16384, 16384, p, s)
		if mod.AvgRecv <= 0 || math.IsNaN(mod.AvgRecv) {
			t.Fatalf("p=%d: bad model %+v", p, mod)
		}
		if mod.AvgRecv > prev*1.05 {
			t.Fatalf("p=%d: volume %v did not scale down from %v", p, mod.AvgRecv, prev)
		}
		prev = mod.AvgRecv
	}
}

func TestCOSMALimitedVsExtraMemoryRegimes(t *testing.T) {
	// Eq. 33: with ample memory COSMA switches to the cubic regime and
	// communicates less than in the limited regime.
	m, n, k, p := 1<<12, 1<<12, 1<<12, 64
	limited := planModel(t, m, n, k, p, 2*m*n/p)
	extra := planModel(t, m, n, k, p, 1<<30)
	if extra.AvgRecv >= limited.AvgRecv {
		t.Fatalf("extra-memory volume %v not below limited %v", extra.AvgRecv, limited.AvgRecv)
	}
}
