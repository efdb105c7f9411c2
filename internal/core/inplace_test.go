package core

import (
	"context"
	"errors"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

// TestDecompositionRoundsCountsExecutedRounds holds Decomposition.Rounds
// to what the rank program does: the most rounds any rank multiplies,
// ownership cuts included, on the three benchmark shapes and an uneven
// one. The rank program charges one Compute per executed round, and
// that is the clock a RankDeath's Round counts: a death scheduled for
// round Rounds−1 must fire on some rank, one scheduled for round Rounds
// on none.
func TestDecompositionRoundsCountsExecutedRounds(t *testing.T) {
	cases := []struct {
		name          string
		m, n, k, p, s int
		want          int // 0: only checked against the execution
	}{
		{"square-roomy", 1024, 1024, 1024, 16, 1 << 20, 2},
		{"square-tight", 1024, 1024, 1024, 16, 69632, 128},
		{"tall-k", 128, 128, 65536, 16, 1 << 18, 5},
		{"uneven", 97, 61, 113, 6, 2000, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if testing.Short() && c.k >= 1024 {
				t.Skip("benchmark-sized multiplication")
			}
			pl, err := Plan(algo.Config{}, c.m, c.n, c.k, c.p, c.s)
			if err != nil {
				t.Fatal(err)
			}
			got := pl.Geometry.Rounds
			if c.want != 0 && got != c.want {
				t.Fatalf("grid %s: Decomposition.Rounds = %d, want %d", pl.Grid, got, c.want)
			}
			a, b := matrix.New(c.m, c.k), matrix.New(c.k, c.n)
			mach, arena := machine.New(c.p), algo.NewArena(c.p)
			// diesIn reports whether any rank reaches a round-th Compute.
			diesIn := func(round int) bool {
				var deaths []machine.RankDeath
				for rank := 0; rank < c.p; rank++ {
					deaths = append(deaths, machine.RankDeath{Rank: rank, Round: round})
				}
				if err := mach.SetFaultPlan(machine.FaultPlan{Deaths: deaths}); err != nil {
					t.Fatal(err)
				}
				arena.Reset()
				_, err := pl.Execute(context.Background(), mach, arena, a, b)
				if err != nil && !errors.Is(err, machine.ErrFaultInjected) {
					t.Fatal(err)
				}
				return err != nil
			}
			if !diesIn(got - 1) {
				t.Fatalf("grid %s: Decomposition.Rounds = %d but no rank multiplies a round %d", pl.Grid, got, got-1)
			}
			if diesIn(got) {
				t.Fatalf("grid %s: Decomposition.Rounds = %d but some rank multiplies a round %d", pl.Grid, got, got)
			}
		})
	}
}

// TestArenaRetainsNoInputSizedBuffer guards the no-clone-in contract on
// a scaled-down tall-k: after a warm Execute the arena holds the ranks'
// C tiles and nothing the size of an input piece — the inputs are read
// where the caller put them.
func TestArenaRetainsNoInputSizedBuffer(t *testing.T) {
	const m, n, k, p = 64, 64, 16384, 8
	pl, err := Plan(algo.Config{}, m, n, k, p, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	d := pl.Geometry
	if d.GridPk < 2 {
		t.Fatalf("grid %s is not k-parallel; the shape no longer stands in for tall-k", pl.Grid)
	}
	a, b := matrix.New(m, k), matrix.New(k, n)
	mach, arena := machine.New(p), algo.NewArena(p)
	for run := 0; run < 2; run++ {
		arena.Reset()
		if _, err := pl.Execute(context.Background(), mach, arena, a, b); err != nil {
			t.Fatal(err)
		}
	}
	cTiles := d.RanksUsed * d.DomainM * d.DomainN
	if got := arena.Retained(); got > cTiles {
		t.Fatalf("grid %s: arena retains %d words, more than the %d of the C tiles (inputs are %d)",
			pl.Grid, got, cTiles, m*k+k*n)
	}
}
