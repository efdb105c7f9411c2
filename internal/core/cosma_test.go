package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/bound"
	"cosma/internal/grid"
	"cosma/internal/layout"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

func mulRef(a, b *matrix.Dense) *matrix.Dense {
	c := matrix.New(a.Rows, b.Cols)
	matrix.NewKernel(1).Mul(c, a, b)
	return c
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
	pl, err := Plan(algo.Config{}, 16, 16, 16, 65, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	mach := machine.New(65)
	ex, err := algo.NewExecutor(pl, mach)
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := ex.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Model.Used != 64 {
		t.Fatalf("used %d ranks, want 64", rep.Model.Used)
	}
	if c := mach.Counters(64); c != (machine.Counters{}) {
		t.Errorf("idle rank 64 has counters %+v, want no words, messages or flops", c)
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

// segments is the reference round walk newSlab replaced: it partitions
// [0, extent) at every boundary of either ownership partition and then
// sub-chunks each piece to at most step.
func segments(extent int, aParts, bParts []layout.Range, step int) []layout.Range {
	cuts := map[int]bool{0: true, extent: true}
	for _, r := range aParts {
		cuts[r.Lo] = true
	}
	for _, r := range bParts {
		cuts[r.Lo] = true
	}
	points := make([]int, 0, len(cuts))
	for c := range cuts {
		points = append(points, c)
	}
	sort.Ints(points)
	var out []layout.Range
	for i := 0; i+1 < len(points); i++ {
		for lo := points[i]; lo < points[i+1]; lo += step {
			out = append(out, layout.Range{Lo: lo, Hi: min(lo+step, points[i+1])})
		}
	}
	return out
}

// ownerOf is the reference root lookup: the index of the partition
// member containing position x.
func ownerOf(parts []layout.Range, x int) int {
	i := sort.Search(len(parts), func(i int) bool { return parts[i].Hi > x })
	if i == len(parts) || x < parts[i].Lo {
		panic(fmt.Sprintf("core: position %d outside partition", x))
	}
	return i
}

// TestRoundTableMatchesUnionCuts checks newSlab's one merge walk against
// the union-of-cuts reference: the same rounds in order, each rooted at
// the parts holding its first outer product and crossing no part
// boundary — also where the slab is shorter than a group, so some parts
// are empty.
func TestRoundTableMatchesUnionCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	short := 0
	for c := 0; c < 3000; c++ {
		g := grid.Grid{Pm: 1 + rng.Intn(20), Pn: 1 + rng.Intn(20), Pk: 1}
		ext := 1 + rng.Intn(200)
		if c%4 == 0 { // a slab shorter than one of its groups
			ext = 1 + rng.Intn(max(g.Pm, g.Pn))
		}
		if ext < g.Pm && ext < g.Pn {
			short++
		}
		step := 1 + rng.Intn(ext+3)
		k := layout.Range{Lo: 7, Hi: 7 + ext}
		sl := newSlab(k, g, step)
		want := segments(ext, sl.aParts, sl.bParts, step)
		if sl.k != k || len(sl.aParts) != g.Pn || len(sl.bParts) != g.Pm || len(sl.rounds) != len(want) {
			t.Fatalf("ext %d %v step %d: %d rounds, reference %d", ext, g, step, len(sl.rounds), len(want))
		}
		for i, rd := range sl.rounds {
			seg := rd.seg
			if seg != want[i] || rd.a != ownerOf(sl.aParts, seg.Lo) || rd.b != ownerOf(sl.bParts, seg.Lo) {
				t.Fatalf("ext %d %v step %d: round %d = %+v, reference %v rooted at (%d, %d)", ext, g, step, i,
					rd, want[i], ownerOf(sl.aParts, seg.Lo), ownerOf(sl.bParts, seg.Lo))
			}
			if seg.Len() > step || ownerOf(sl.aParts, seg.Hi-1) != rd.a || ownerOf(sl.bParts, seg.Hi-1) != rd.b {
				t.Fatalf("ext %d %v step %d: round %v crosses a part boundary", ext, g, step, seg)
			}
		}
	}
	if short == 0 {
		t.Fatal("no case had a slab shorter than both groups")
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
		plan, err := NewPlan("COSMA", algo.Config{}, c.g, c.m, c.n, c.k, c.g.Ranks(), 1<<20, false)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := plan.Model.AvgRecv, c.g.ModelVolume(c.m, c.n, c.k); got != want {
			t.Errorf("%v on %d×%d×%d: counted %v words/rank, Fit's objective says %v", c.g, c.m, c.n, c.k, got, want)
		}
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
