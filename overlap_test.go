package cosma

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"cosma/internal/algo"
	"cosma/internal/baselines"
	"cosma/internal/layout"
	"cosma/internal/workload"
)

// TestOverlapExecCancellation cancels a pipelined execution mid-run (S
// has room for the second panel pair): ranks parked in Request.Wait
// inside the prefetching round loop must unwind and Exec must return
// ctx.Err(), with the engine reusable afterwards.
func TestOverlapExecCancellation(t *testing.T) {
	const n, p = 256, 8
	eng, err := NewEngine(WithProcs(p), WithMemory(8*n*n/p), WithOverlap(true))
	if err != nil {
		t.Fatal(err)
	}
	a := RandomMatrix(n, n, 41)
	b := RandomMatrix(n, n, 42)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond) // let the round loops start
		cancel()
	}()
	if _, _, err := eng.Exec(ctx, a, b); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled overlapped Exec returned %v", err)
	}
	// The engine (and its pooled executor) must remain usable.
	if _, _, err := eng.Exec(context.Background(), a, b); err != nil {
		t.Fatalf("engine not reusable after cancelled overlapped run: %v", err)
	}
}

// TestOverlapOnlyWhenSHasRoom holds the pipeline to S (§7.3 buys its
// second panel pair out of S, not on top of it). Over the seeded catalog
// and the benchmark's three engine shapes, a COSMA, SUMMA or 2.5D plan
// asked to overlap pipelines exactly when its C tile plus two panel
// pairs of its longest round fit: dm·dn + 2·h·(dm + dn) ≤ S. Where a
// second pair fits, an engine's WithOverlap reaches its plan, the report
// says which schedule ran, and both products have the same bits. At
// square-tight's S no second pair fits, and an engine asked to overlap
// runs the synchronous schedule to the same critical path.
func TestOverlapOnlyWhenSHasRoom(t *testing.T) {
	type shape struct{ m, n, k, p, s int }
	var shapes []shape
	for i, d := range workload.NewGenerator(workload.GenConfig{Seed: 1, Shapes: 12}).Catalog() {
		shapes = append(shapes, shape{d.M, d.N, d.K, 4 + 3*i, 1 << (12 + i%3*4)})
	}
	shapes = append(shapes,
		shape{1024, 1024, 1024, 16, 1 << 20},
		shape{1024, 1024, 1024, 16, 69632},
		shape{128, 128, 65536, 16, 1 << 18})
	var granted, refused int
	for _, c := range shapes {
		for _, name := range []string{"cosma", "summa", "2.5d"} {
			spec, err := baselines.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := spec.Plan(algo.Config{Overlap: true}, c.m, c.n, c.k, c.p, c.s)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, c, err)
			}
			d := pl.Geometry
			room := d.DomainM*d.DomainN+2*longestRound(c.k, d)*(d.DomainM+d.DomainN) <= c.s
			if pl.Overlap != room {
				t.Errorf("%s %+v (%v): Overlap = %v, room for two pairs = %v", name, c, d, pl.Overlap, room)
			}
			if room {
				granted++
			} else {
				refused++
			}
			sync, err := spec.Plan(algo.Config{}, c.m, c.n, c.k, c.p, c.s)
			if err != nil {
				t.Fatalf("%s %+v: %v", name, c, err)
			}
			if sync.Overlap {
				t.Errorf("%s %+v: pipelines without being asked", name, c)
			}
		}
	}
	if granted == 0 || refused == 0 {
		t.Errorf("the sweep granted overlap %d times and refused it %d times; want both", granted, refused)
	}

	// 120×104×88 on p = 4 has room for two panel pairs.
	a, b := RandomMatrix(120, 88, 21), RandomMatrix(88, 104, 22)
	var prods []*Matrix
	for _, overlap := range []bool{true, false} {
		eng, err := NewEngine(WithProcs(4), WithMemory(8*120*104/4), WithOverlap(overlap))
		if err != nil {
			t.Fatal(err)
		}
		c, rep, err := eng.Exec(context.Background(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Overlap != overlap {
			t.Errorf("WithOverlap(%v): Report.Overlap = %v", overlap, rep.Overlap)
		}
		prods = append(prods, c)
	}
	if !slices.Equal(prods[0].Data, prods[1].Data) {
		t.Error("the overlapped and the synchronous product differ bitwise")
	}

	if testing.Short() {
		t.Skip("executes two 1024³ multiplications")
	}
	var reps []*Report
	for _, overlap := range []bool{true, false} {
		eng, err := NewEngine(WithProcs(16), WithMemory(69632), WithNetwork(PizDaintNetwork()), WithOverlap(overlap))
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := eng.Exec(context.Background(), RandomMatrix(1024, 1024, 2), RandomMatrix(1024, 1024, 3))
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
	}
	if reps[0].Overlap || reps[0].CritPathTime != reps[1].CritPathTime {
		t.Errorf("square-tight asked to overlap: Overlap = %v, critical path %v; synchronous %v",
			reps[0].Overlap, reps[0].CritPathTime, reps[1].CritPathTime)
	}
}

// longestRound is the most outer products one round of the plan with
// geometry d carries over a k extent: the longest piece between the A
// and B ownership cuts of any k slab, capped at the step.
func longestRound(k int, d algo.Decomposition) int {
	h := 0
	for ik := 0; ik < d.GridPk; ik++ {
		slab := layout.Block(k, d.GridPk, ik).Len()
		cuts := []int{slab}
		for _, r := range append(layout.Split(slab, d.GridPn), layout.Split(slab, d.GridPm)...) {
			cuts = append(cuts, r.Lo)
		}
		slices.Sort(cuts)
		for i := 1; i < len(cuts); i++ {
			h = max(h, min(cuts[i]-cuts[i-1], d.StepSize))
		}
	}
	return h
}
