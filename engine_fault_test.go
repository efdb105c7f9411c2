package cosma

import (
	"context"
	"errors"
	"testing"
	"time"

	"cosma/internal/matrix"
)

// TestEngineFaultPlanKillSurfacesAsError proves the public WithFaultPlan
// path end to end: a rank death injected through the engine surfaces as
// a prompt Exec error wrapping ErrFaultInjected, on both the counting
// and the timed transport.
func TestEngineFaultPlanKillSurfacesAsError(t *testing.T) {
	net := PizDaintNetwork()
	cases := []struct {
		name string
		opts []Option
	}{
		{"counting", nil},
		{"timed", []Option{WithNetwork(net)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]Option{
				WithProcs(4), WithMemory(1 << 16),
				WithFaultPlan(FaultPlan{Deaths: []RankDeath{{Rank: 1, Round: 0}}}),
			}, tc.opts...)
			eng, err := NewEngine(opts...)
			if err != nil {
				t.Fatal(err)
			}
			a := RandomMatrix(48, 48, 1)
			b := RandomMatrix(48, 48, 2)
			done := make(chan error, 1)
			go func() {
				_, _, err := eng.Exec(context.Background(), a, b)
				done <- err
			}()
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("injected death hung Exec instead of erroring")
			}
			if !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("err = %v, want ErrFaultInjected", err)
			}
		})
	}
}

// TestEngineFaultPlanDropTripsRecvTimeout proves a dropped link plus
// WithRecvTimeout turns a would-be deadlock into ErrRecvTimeout.
func TestEngineFaultPlanDropTripsRecvTimeout(t *testing.T) {
	eng, err := NewEngine(
		WithProcs(4), WithMemory(1<<16),
		WithRecvTimeout(200*time.Millisecond),
		WithFaultPlan(FaultPlan{Drops: []MessageDrop{{Src: -1, Dst: 0}}}),
	)
	if err != nil {
		t.Fatal(err)
	}
	a := RandomMatrix(48, 48, 3)
	b := RandomMatrix(48, 48, 4)
	_, _, err = eng.Exec(context.Background(), a, b)
	if !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("err = %v, want ErrRecvTimeout", err)
	}
}

// TestEngineFaultPlanEmptyIsIdentity proves WithFaultPlan(FaultPlan{})
// is a no-op: the product matches a fault-free engine bitwise.
func TestEngineFaultPlanEmptyIsIdentity(t *testing.T) {
	a := RandomMatrix(40, 40, 5)
	b := RandomMatrix(40, 40, 6)
	run := func(opts ...Option) *Matrix {
		eng, err := NewEngine(append([]Option{WithProcs(4), WithMemory(1 << 16)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		c, _, err := eng.Exec(context.Background(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	plain := run()
	empty := run(WithFaultPlan(FaultPlan{}))
	if !matrix.EqualWithin(plain, empty, 0) {
		t.Fatal("empty fault plan changed the product")
	}
}

// TestEngineFaultPlanValidatedAtConstruction proves an out-of-range
// plan is rejected by NewEngine, not at Exec time.
func TestEngineFaultPlanValidatedAtConstruction(t *testing.T) {
	_, err := NewEngine(
		WithProcs(4), WithMemory(1<<16),
		WithFaultPlan(FaultPlan{Deaths: []RankDeath{{Rank: 9}}}),
	)
	if err == nil {
		t.Fatal("NewEngine accepted a fault plan referencing rank 9 of 4")
	}
}

// TestRankDeathRoundCountsCommunicationRounds holds RankDeath.Round to
// what the README says it means, on every transport: at p = 8 the plan
// has two rounds, so Round: 1 — the README's own example — kills rank 3
// in its second round; Round: Decomposition.Rounds names a round no rank
// executes (rank 3 still sends after its last one, in the fiber
// reduction or the wire gather) and leaves the product untouched; and a
// Round: 1 death scripted for the first attempt is what WithRetry
// recovers from.
func TestRankDeathRoundCountsCommunicationRounds(t *testing.T) {
	const p = 8
	a := RandomMatrix(64, 64, 1)
	b := RandomMatrix(64, 64, 2)
	clean, err := NewEngine(WithProcs(p), WithMemory(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := clean.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := clean.Plan(context.Background(), 64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	d, ok := plan.Decomposition()
	if !ok || d.Rounds < 2 {
		t.Fatalf("decomposition %+v: the test needs a plan of at least two rounds", d)
	}
	for _, tc := range retryTransports(t, p) {
		t.Run(tc.name, func(t *testing.T) {
			exec := func(death RankDeath, extra ...Option) (*Matrix, *Report, error) {
				opts := append([]Option{
					WithProcs(p), WithMemory(1 << 16),
					WithFaultPlan(FaultPlan{Deaths: []RankDeath{death}}),
				}, tc.opts...)
				eng, err := NewEngine(append(opts, extra...)...)
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				return eng.Exec(context.Background(), a, b)
			}
			if _, _, err := exec(RankDeath{Rank: 3, Round: 1}); !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("Round: 1 returned %v, want ErrFaultInjected", err)
			}
			got, _, err := exec(RankDeath{Rank: 3, Round: d.Rounds})
			if err != nil {
				t.Fatalf("Round: %d (past the last round) failed the run: %v", d.Rounds, err)
			}
			if !matrix.EqualWithin(got, want, 0) {
				t.Fatalf("Round: %d changed the product", d.Rounds)
			}
			got, rep, err := exec(RankDeath{Rank: 3, Round: 1, OnAttempt: 1}, WithRetry(fastRetry))
			if err != nil {
				t.Fatalf("retry did not recover from a round-1 death: %v", err)
			}
			if rep.Attempts != 2 || !matrix.EqualWithin(got, want, 0) {
				t.Fatalf("recovered in %d attempts (want 2), product equal: %v", rep.Attempts, matrix.EqualWithin(got, want, 0))
			}
		})
	}
}
