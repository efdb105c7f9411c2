package machine

import (
	"errors"
	"math"
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

// TestChargeKeepsTheRoundClock: a round charged in pieces — Compute
// for the first, Charge for the rest — is one round to a RankDeath, and
// every piece reaches the flop counter and a SlowRank's skew.
func TestChargeKeepsTheRoundClock(t *testing.T) {
	net := testNet()
	m := NewTimed(1, net)
	plan := FaultPlan{Deaths: []RankDeath{{Rank: 0, Round: 1}}, Slow: []SlowRank{{Rank: 0, Factor: 3}}}
	if err := m.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	const flops = 1 << 10
	err := m.Run(func(r *Rank) error {
		r.Compute(flops)
		r.Charge(flops)
		r.Charge(flops)
		return nil
	})
	if err != nil {
		t.Fatalf("one round in three pieces tripped the round-1 death: %v", err)
	}
	if got := m.Counters(0).Flops; got != 3*flops {
		t.Errorf("flop counter %d, want %d", got, 3*flops)
	}
	if got, want := m.MaxTime(), 3*3*net.Gamma*flops; math.Abs(got-want) > 1e-12*want {
		t.Errorf("skewed clock %v, want %v", got, want)
	}
	err = m.Run(func(r *Rank) error {
		r.Compute(flops)
		r.Charge(flops)
		r.Compute(flops)
		return nil
	})
	if !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("a second Compute survived the round-1 death: %v", err)
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
	plan := FaultPlan{Links: []LinkFault{{Src: 0, Dst: 1, Corrupt: true, Word: 2}}}
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

func TestFaultPlanValidate(t *testing.T) {
	m := New(4)
	bad := []FaultPlan{
		{Deaths: []RankDeath{{Rank: 4}}},
		{Deaths: []RankDeath{{Rank: -1}}},
		{Deaths: []RankDeath{{Rank: 0, Round: -1}}},
		{Deaths: []RankDeath{{Rank: 0, OnAttempt: -1}}},
		{Links: []LinkFault{{Src: 9, Dst: 0, Drop: true}}},
		{Links: []LinkFault{{Src: 0, Dst: -2}}},
		{Links: []LinkFault{{Src: 0, Dst: 0, After: -1}}},
		{Links: []LinkFault{{Src: 0, Dst: 0, OnAttempt: -2}}},
		{Links: []LinkFault{{Src: 0, Dst: 1, Seconds: -1}}},
		{Links: []LinkFault{{Src: 0, Dst: 1, Wall: -time.Second}}},
		{Links: []LinkFault{{Src: 0, Dst: 1, Corrupt: true, Word: -1}}},
		{Slow: []SlowRank{{Rank: 0, Factor: 0.5}}},
		{Slow: []SlowRank{{Rank: 0, PerCompute: -time.Second}}},
	}
	for i, fp := range bad {
		if err := m.SetFaultPlan(fp); err == nil {
			t.Fatalf("plan %d must fail validation", i)
		}
	}
	ok := FaultPlan{
		Deaths: []RankDeath{{Rank: 3, Round: 2, OnAttempt: 1}},
		Links: []LinkFault{
			{Src: -1, Dst: -1, Drop: true},
			{Src: 0, Dst: -1, Seconds: 1, Wall: time.Millisecond},
			{Src: -1, Dst: 2, After: 4, OnAttempt: 1, Corrupt: true, Word: 3, Scale: 2},
		},
		Slow: []SlowRank{{Rank: 1, Factor: 2, PerCompute: time.Millisecond}},
	}
	if err := m.SetFaultPlan(ok); err != nil {
		t.Fatal(err)
	}
}

// TestLinkFaultMatcher pins the one rule that decides each message: the
// most specific rule on the link (exact, wildcard Dst, wildcard Src,
// both; ties in plan order) that is live on this Run, firing only once
// After messages have been sent on the link, with no fall-through to a
// less specific rule while it waits. Word tags each rule.
func TestLinkFaultMatcher(t *testing.T) {
	type send struct{ src, dst, want int } // want: the firing rule's Word, -1 for none
	cases := []struct {
		name  string
		links []LinkFault
		runs  [][]send // sends on the first Run, then the second, …
	}{
		{"specificity", []LinkFault{
			{Src: -1, Dst: -1, Word: 3},
			{Src: -1, Dst: 1, Word: 2},
			{Src: 0, Dst: -1, Word: 1},
			{Src: 0, Dst: 1, Word: 0},
		}, [][]send{{{0, 1, 0}, {0, 2, 1}, {2, 1, 2}, {2, 0, 3}, {1, 0, 3}}}},
		{"a wildcard Dst beats a wildcard Src", []LinkFault{
			{Src: -1, Dst: 1, Word: 2},
			{Src: 0, Dst: -1, Word: 1},
		}, [][]send{{{0, 1, 1}, {2, 1, 2}}}},
		{"ties keep plan order", []LinkFault{
			{Src: 0, Dst: 1, Word: 5},
			{Src: 0, Dst: 1, Word: 6},
		}, [][]send{{{0, 1, 5}, {1, 0, -1}}}},
		{"a rule gated to another run yields", []LinkFault{
			{Src: 0, Dst: 1, OnAttempt: 2, Word: 7},
			{Src: -1, Dst: -1, Word: 8},
		}, [][]send{{{0, 1, 8}}, {{0, 1, 7}}, {{0, 1, 8}}}},
		{"after waits without falling through", []LinkFault{
			{Src: 0, Dst: 1, After: 2, Word: 9},
			{Src: -1, Dst: -1, Word: 4},
		}, [][]send{
			{{0, 1, -1}, {0, 2, 4}, {0, 1, -1}, {0, 1, 9}, {0, 1, 9}},
			{{0, 1, -1}, {0, 1, -1}, {0, 1, 9}}, // the count restarts each Run
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := compileFaults(FaultPlan{Links: tc.links}, 3)
			for run, sends := range tc.runs {
				f.reset()
				for i, s := range sends {
					got := -1
					if l := f.link(s.src, s.dst); l != nil {
						got = l.Word
					}
					if got != s.want {
						t.Fatalf("run %d send %d (%d→%d): rule %d fired, want %d", run+1, i, s.src, s.dst, got, s.want)
					}
				}
			}
		})
	}
}

// TestLinkFaultAppliesEveryEffect: one rule that corrupts and delays
// does both to the same message on a timed machine, and a wildcard drop
// never touches a self-send.
func TestLinkFaultAppliesEveryEffect(t *testing.T) {
	net := testNet()
	m := NewTimed(2, net)
	plan := FaultPlan{Links: []LinkFault{
		{Src: 0, Dst: 1, Corrupt: true, Scale: 2, Seconds: 5},
		{Src: -1, Dst: -1, Drop: true},
	}}
	if err := m.SetFaultPlan(plan); err != nil {
		t.Fatal(err)
	}
	err := m.Run(func(r *Rank) error {
		if r.ID() == 1 {
			if got := r.Recv(0, 0); got[0] != 6 {
				return errors.New("the 0→1 payload was not scaled")
			}
			return nil
		}
		r.Send(0, 0, []float64{1})
		if got := r.Recv(0, 0); got[0] != 1 {
			return errors.New("the self-send was perturbed")
		}
		r.Send(1, 0, []float64{3})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Times()[1]; got < 5 {
		t.Fatalf("receiver clock %v: the 5 s departure delay was not applied", got)
	}
}
