package machine

import (
	"errors"
	"testing"
	"time"
)

// ringProgram is the canonical 3-round neighbor exchange used by the
// fault tests: deterministic traffic on every rank, one Compute per
// round.
func ringProgram(rounds, words int) func(r *Rank) error {
	return func(r *Rank) error {
		p, id := r.P(), r.ID()
		next, prev := (id+1)%p, (id+p-1)%p
		for round := 0; round < rounds; round++ {
			r.Send(next, round, make([]float64, words))
			r.Recv(prev, round)
			r.Compute(1 << 10)
		}
		return nil
	}
}

func TestFaultRankDeathSurfacesAsError(t *testing.T) {
	m := New(4)
	if err := m.SetFaultPlan(FaultPlan{Deaths: []RankDeath{{Rank: 2, Round: 1}}}); err != nil {
		t.Fatal(err)
	}
	err := m.Run(ringProgram(3, 8))
	if !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("err = %v, want ErrFaultInjected", err)
	}
	// The machine must be reusable once the plan is cleared.
	if err := m.SetFaultPlan(FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(ringProgram(3, 8)); err != nil {
		t.Fatalf("clean run after fault: %v", err)
	}
}

func TestFaultDeathReportedAsRootCauseNotCollateral(t *testing.T) {
	// Rank 0 dies; every other rank unwinds through an interrupted Recv. The error Run returns must still be the
	// injected death, not the collateral.
	m := New(4)
	if err := m.SetFaultPlan(FaultPlan{Deaths: []RankDeath{{Rank: 0, Round: 0}}}); err != nil {
		t.Fatal(err)
	}
	err := m.Run(ringProgram(2, 8))
	if !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("root cause = %v, want ErrFaultInjected", err)
	}
}

func TestFaultMessageDropTripsRecvTimeout(t *testing.T) {
	m := New(3)
	m.SetRecvTimeout(100 * time.Millisecond)
	if err := m.SetFaultPlan(FaultPlan{Drops: []MessageDrop{{Src: 0, Dst: 1}}}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := m.Run(ringProgram(1, 8))
	if !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("err = %v, want ErrRecvTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drop took %v to surface — not prompt", elapsed)
	}
}

func TestFaultDropAfterLetsEarlyMessagesThrough(t *testing.T) {
	m := New(2)
	m.SetRecvTimeout(100 * time.Millisecond)
	// First message passes, second drops.
	if err := m.SetFaultPlan(FaultPlan{Drops: []MessageDrop{{Src: 0, Dst: 1, After: 1}}}); err != nil {
		t.Fatal(err)
	}
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 0, make([]float64, 4))
			r.Send(1, 1, make([]float64, 4))
		} else {
			r.Recv(0, 0) // delivered
			r.Recv(0, 1) // dropped → timeout
		}
		return nil
	})
	if !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("err = %v, want ErrRecvTimeout on the second message", err)
	}
}

func TestFaultWildcardDropSpecificity(t *testing.T) {
	// The specific allow-through rule (After: 1000) must beat the
	// wildcard drop-everything rule for the 0→1 link.
	m := New(3)
	m.SetRecvTimeout(100 * time.Millisecond)
	plan := FaultPlan{Drops: []MessageDrop{
		{Src: -1, Dst: -1, After: 0},  // drop everything...
		{Src: 0, Dst: 1, After: 1000}, // ...except 0→1
	}}
	if err := m.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 0, make([]float64, 4))
		}
		if r.ID() == 1 {
			r.Recv(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("specific rule must win over wildcard: %v", err)
	}
}

func TestFaultLogicalDelayShiftsTimedClock(t *testing.T) {
	net := testNet() // α=1, β=0.1, γ=0.001
	run := func(delay float64) float64 {
		m := NewTimed(2, net)
		if delay > 0 {
			plan := FaultPlan{Delays: []MessageDelay{{Src: 0, Dst: 1, Seconds: delay}}}
			if err := m.SetFaultPlan(plan); err != nil {
				t.Fatal(err)
			}
		}
		err := m.Run(func(r *Rank) error {
			if r.ID() == 0 {
				r.Send(1, 0, make([]float64, 10))
			} else {
				r.Recv(0, 0)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.MaxTime()
	}
	base, delayed := run(0), run(5)
	if delayed < base+4.5 {
		t.Fatalf("logical delay did not stretch the critical path: %v vs %v", delayed, base)
	}
}

func TestFaultWallDelayTripsDeadline(t *testing.T) {
	m := New(2)
	m.SetRecvTimeout(50 * time.Millisecond)
	plan := FaultPlan{Delays: []MessageDelay{{Src: 0, Dst: 1, Wall: 400 * time.Millisecond}}}
	if err := m.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 0, make([]float64, 4))
		} else {
			r.Recv(0, 0)
		}
		return nil
	})
	if !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("err = %v, want ErrRecvTimeout", err)
	}
}

func TestFaultSlowRankSkewsTimedClock(t *testing.T) {
	net := testNet()
	run := func(factor float64) float64 {
		m := NewTimed(2, net)
		if factor > 0 {
			if err := m.SetFaultPlan(FaultPlan{Slow: []SlowRank{{Rank: 1, Factor: factor}}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Run(func(r *Rank) error {
			r.Compute(1 << 20)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return m.MaxTime()
	}
	base, skewed := run(0), run(3)
	if skewed < 2.9*base {
		t.Fatalf("γ skew ×3 raised critical path only %v → %v", base, skewed)
	}
}

// The headline invariant: installing an empty plan must leave timed
// clocks bitwise-identical to a machine that never saw SetFaultPlan.
func TestFaultEmptyPlanBitwiseIdentical(t *testing.T) {
	prog := ringProgram(3, 64)
	mA := NewTimed(4, PizDaintNet())
	mB := NewTimed(4, PizDaintNet())
	if err := mB.SetFaultPlan(FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	if err := mA.Run(prog); err != nil {
		t.Fatal(err)
	}
	if err := mB.Run(prog); err != nil {
		t.Fatal(err)
	}
	ta, tb := mA.Times(), mB.Times()
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("rank %d clock differs under empty plan: %v vs %v", i, ta[i], tb[i])
		}
	}
}

func TestFaultCorruptFlipsOneWord(t *testing.T) {
	// A corrupted copied send: the receiver sees exactly one word
	// changed, and the sender's buffer is untouched.
	m := New(2)
	plan := FaultPlan{Corrupts: []Corrupt{{Src: 0, Dst: 1, Word: 2}}}
	if err := m.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	sent := []float64{1, 2, 3, 4}
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 0, sent)
			return nil
		}
		got := r.Recv(0, 0)
		defer Release(got)
		for i, v := range got {
			if i == 2 {
				if v == sent[i] {
					return errors.New("word 2 was not corrupted")
				}
				continue
			}
			if v != sent[i] {
				return errors.New("a word other than 2 was changed")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float64{1, 2, 3, 4} {
		if sent[i] != v {
			t.Fatalf("corruption mutated the caller's buffer at word %d", i)
		}
	}
}

func TestFaultCorruptScaleAndAfter(t *testing.T) {
	// Scale-mode corruption that starts after the first message: message
	// 0 arrives clean, message 1 arrives with word 0 scaled.
	m := New(2)
	plan := FaultPlan{Corrupts: []Corrupt{{Src: 0, Dst: 1, After: 1, Scale: 10}}}
	if err := m.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 0, []float64{5})
			r.Send(1, 1, []float64{5})
			return nil
		}
		first := r.Recv(0, 0)
		second := r.Recv(0, 1)
		defer Release(first)
		defer Release(second)
		if first[0] != 5 {
			return errors.New("message before After was corrupted")
		}
		if second[0] != 50 {
			return errors.New("message after After was not scaled")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultCorruptOnAttemptGating(t *testing.T) {
	// OnAttempt: 1 corrupts only the first run after installation; the
	// second run on the same machine is clean — the contract retry
	// loops script chaos experiments against.
	m := New(2)
	plan := FaultPlan{Corrupts: []Corrupt{{Src: 0, Dst: 1, OnAttempt: 1}}}
	if err := m.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	run := func() (clean bool) {
		err := m.Run(func(r *Rank) error {
			if r.ID() == 0 {
				r.Send(1, 0, []float64{7})
				return nil
			}
			got := r.Recv(0, 0)
			defer Release(got)
			if got[0] != 7 {
				return errors.New("corrupted")
			}
			return nil
		})
		return err == nil
	}
	if run() {
		t.Fatal("attempt 1 was not corrupted")
	}
	if !run() {
		t.Fatal("attempt 2 was corrupted despite OnAttempt: 1")
	}
}

func TestFaultDeathOnAttemptGating(t *testing.T) {
	m := New(3)
	plan := FaultPlan{Deaths: []RankDeath{{Rank: 2, Round: 0, OnAttempt: 1}}}
	if err := m.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(ringProgram(2, 8)); !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("attempt 1: err = %v, want ErrFaultInjected", err)
	}
	if err := m.Run(ringProgram(2, 8)); err != nil {
		t.Fatalf("attempt 2 must survive an OnAttempt: 1 death: %v", err)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	m := New(4)
	bad := []FaultPlan{
		{Deaths: []RankDeath{{Rank: 4}}},
		{Deaths: []RankDeath{{Rank: -1}}},
		{Deaths: []RankDeath{{Rank: 0, Round: -1}}},
		{Deaths: []RankDeath{{Rank: 0, OnAttempt: -1}}},
		{Drops: []MessageDrop{{Src: 9, Dst: 0}}},
		{Drops: []MessageDrop{{Src: 0, Dst: 0, After: -1}}},
		{Drops: []MessageDrop{{Src: 0, Dst: 0, OnAttempt: -2}}},
		{Delays: []MessageDelay{{Src: 0, Dst: 1, Seconds: -1}}},
		{Slow: []SlowRank{{Rank: 0, Factor: 0.5}}},
		{Slow: []SlowRank{{Rank: 0, PerCompute: -time.Second}}},
		{Corrupts: []Corrupt{{Src: 5, Dst: 0}}},
		{Corrupts: []Corrupt{{Src: 0, Dst: 1, Word: -1}}},
		{Corrupts: []Corrupt{{Src: 0, Dst: 1, After: -1}}},
		{Corrupts: []Corrupt{{Src: 0, Dst: 1, OnAttempt: -1}}},
	}
	for i, fp := range bad {
		if err := m.SetFaultPlan(fp); err == nil {
			t.Fatalf("plan %d must fail validation", i)
		}
	}
	ok := FaultPlan{
		Deaths:   []RankDeath{{Rank: 3, Round: 2, OnAttempt: 1}},
		Drops:    []MessageDrop{{Src: -1, Dst: -1}},
		Delays:   []MessageDelay{{Src: 0, Dst: -1, Seconds: 1}},
		Slow:     []SlowRank{{Rank: 1, Factor: 2, PerCompute: time.Millisecond}},
		Corrupts: []Corrupt{{Src: -1, Dst: 2, Word: 3, Scale: 2, OnAttempt: 1}},
	}
	if err := m.SetFaultPlan(ok); err != nil {
		t.Fatal(err)
	}
}
