// Package conformance is the backend-agnostic machine test suite: one
// set of semantic checks — FIFO delivery per (src, tag), owned-vs-copied
// sends, posted receives, identical accounting, cancellation, receive
// deadlines, machine reuse, and the fault-injection section (rank death
// mid-round, dropped and delayed messages, stragglers — each must
// surface as a prompt error, never a hang) — run against every backend
// (counting, timed, wire loopback, wire over sockets) so a clock or a
// link cannot drift from the delivery discipline the algorithms assume.
package conformance

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cosma/internal/machine"
)

// Cluster is one logical machine under test. In-process backends have
// a single Machine hosting all p ranks; multi-process backends (wire)
// have one Machine per simulated process, each hosting a subset.
type Cluster struct {
	Machines []*machine.Machine
	// Cleanup tears the cluster down (closing transports); may be nil.
	Cleanup func()
	// Recover heals the cluster after a failed run — multi-process
	// backends rebuild lost connections here (the wire mesh's Recover
	// on every process). In-process backends may leave it nil:
	// recovery is a no-op for them.
	Recover func() error
}

// Factory builds a fresh p-rank cluster for one subtest.
type Factory func(t *testing.T, p int) *Cluster

// HostOf returns the machine that runs programs for rank.
func (c *Cluster) HostOf(rank int) *machine.Machine {
	for _, m := range c.Machines {
		for _, id := range m.LocalRanks() {
			if id == rank {
				return m
			}
		}
	}
	return nil
}

// run executes program on every machine of the cluster concurrently
// (the multi-process launch discipline) and returns one error per
// machine, in Machines order.
func (c *Cluster) run(ctx context.Context, program func(*machine.Rank) error) []error {
	errs := make([]error, len(c.Machines))
	var wg sync.WaitGroup
	for i, m := range c.Machines {
		wg.Add(1)
		go func(i int, m *machine.Machine) {
			defer wg.Done()
			errs[i] = m.RunCtx(ctx, program)
		}(i, m)
	}
	wg.Wait()
	return errs
}

func first(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run exercises the full conformance suite against clusters built by
// factory. Each subtest gets a fresh cluster.
func Run(t *testing.T, factory Factory) {
	const p = 4

	cluster := func(t *testing.T) *Cluster {
		c := factory(t, p)
		if len(c.Machines) == 0 {
			t.Fatal("factory returned a cluster with no machines")
		}
		if c.Cleanup != nil {
			t.Cleanup(c.Cleanup)
		}
		return c
	}

	t.Run("FIFOPerKey", func(t *testing.T) {
		c := cluster(t)
		const n = 48
		err := first(c.run(context.Background(), func(r *machine.Rank) error {
			// Interleave two tags to every peer; per (src, tag) order
			// must survive even though the streams share connections.
			for k := 0; k < n; k++ {
				for dst := 0; dst < r.P(); dst++ {
					if dst == r.ID() {
						continue
					}
					r.Send(dst, 7, []float64{float64(r.ID()*1000 + k)})
					r.Send(dst, 9, []float64{float64(r.ID()*1000 + k + 500)})
				}
			}
			for src := 0; src < r.P(); src++ {
				if src == r.ID() {
					continue
				}
				for k := 0; k < n; k++ {
					got := r.Recv(src, 7)
					want := float64(src*1000 + k)
					if len(got) != 1 || got[0] != want {
						return fmt.Errorf("rank %d: tag 7 msg %d from %d: got %v want [%v]", r.ID(), k, src, got, want)
					}
					machine.Release(got)
				}
				for k := 0; k < n; k++ {
					got := r.Recv(src, 9)
					want := float64(src*1000 + k + 500)
					if len(got) != 1 || got[0] != want {
						return fmt.Errorf("rank %d: tag 9 msg %d from %d: got %v want [%v]", r.ID(), k, src, got, want)
					}
					machine.Release(got)
				}
			}
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("OwnedAndCopiedSends", func(t *testing.T) {
		c := cluster(t)
		err := first(c.run(context.Background(), func(r *machine.Rank) error {
			dst := (r.ID() + 1) % r.P()
			src := (r.ID() + r.P() - 1) % r.P()
			// Copied send: mutating the buffer after Send must not be
			// visible to the receiver.
			buf := []float64{1, 2, 3}
			r.Send(dst, 5, buf)
			buf[0] = 99
			// Owned send: the pooled buffer travels without copying.
			owned := machine.Loan(3)
			owned[0], owned[1], owned[2] = 7, 8, 9
			r.SendOwned(dst, 6, owned)

			got := r.Recv(src, 5)
			if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
				return fmt.Errorf("rank %d: copied send arrived as %v", r.ID(), got)
			}
			machine.Release(got)
			got = r.Recv(src, 6)
			if len(got) != 3 || got[0] != 7 || got[1] != 8 || got[2] != 9 {
				return fmt.Errorf("rank %d: owned send arrived as %v", r.ID(), got)
			}
			machine.Release(got)
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
	})

	t.Run("RequestWaitTest", func(t *testing.T) {
		c := cluster(t)
		err := first(c.run(context.Background(), func(r *machine.Rank) error {
			dst := (r.ID() + 1) % r.P()
			src := (r.ID() + r.P() - 1) % r.P()
			// A receive posted before its send, settled after it; a second
			// Wait must return the identical settled payload.
			req := r.IRecv(src, 11)
			r.Send(dst, 11, []float64{float64(r.ID())})
			got := req.Wait()
			if len(got) != 1 || got[0] != float64(src) {
				return fmt.Errorf("rank %d: IRecv payload %v, want [%d]", r.ID(), got, src)
			}
			if again := req.Wait(); &again[0] != &got[0] {
				return fmt.Errorf("rank %d: second Wait returned a different payload", r.ID())
			}
			machine.Release(got)
			return nil
		}))
		if err != nil {
			t.Fatal(err)
		}
	})

	// Accounting lives in the machine, not in its clock or link, so one
	// program must leave the same Counters on every backend: the cluster
	// is held to a plain counting machine running the same program.
	t.Run("AccountingIdentical", func(t *testing.T) {
		c := cluster(t)
		ref := machine.New(p)
		if err := ref.Run(mixedTraffic); err != nil {
			t.Fatal(err)
		}
		if err := first(c.run(context.Background(), mixedTraffic)); err != nil {
			t.Fatal(err)
		}
		for rank := 0; rank < p; rank++ {
			got, want := c.HostOf(rank).Counters(rank), ref.Counters(rank)
			if got != want {
				t.Errorf("rank %d: counters %+v, counting machine has %+v", rank, got, want)
			}
			if want.SentMsgs == 0 || want.RecvWords == 0 {
				t.Errorf("rank %d moved no traffic: %+v", rank, want)
			}
		}
	})

	t.Run("Cancellation", func(t *testing.T) {
		c := cluster(t)
		ctx, cancel := context.WithCancel(context.Background())
		time.AfterFunc(30*time.Millisecond, cancel)
		errs := c.run(ctx, func(r *machine.Rank) error {
			// Every rank parks in a receive that is never satisfied.
			r.Recv((r.ID()+1)%r.P(), 404)
			return errors.New("receive of an unsent message returned")
		})
		for i, err := range errs {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("machine %d: got %v, want context.Canceled", i, err)
			}
		}
	})

	t.Run("RecvDeadline", func(t *testing.T) {
		c := cluster(t)
		for _, m := range c.Machines {
			m.SetRecvTimeout(100 * time.Millisecond)
		}
		errs := c.run(context.Background(), func(r *machine.Rank) error {
			if r.ID() == 0 {
				r.Recv(1, 404) // never sent: must time out, not hang
				return errors.New("receive of an unsent message returned")
			}
			return nil
		})
		if err := errs[hostIndex(c, 0)]; !errors.Is(err, machine.ErrRecvTimeout) {
			t.Fatalf("rank 0 host: got %v, want ErrRecvTimeout", err)
		}
		// The machines stay usable: with the deadline lifted, the next
		// run must succeed.
		for _, m := range c.Machines {
			m.SetRecvTimeout(0)
		}
		if err := first(c.run(context.Background(), pingRing)); err != nil {
			t.Fatalf("run after a deadline failure: %v", err)
		}
	})

	// The fault-injection section: every injected failure class must
	// surface as a prompt error on every backend — never a hang — and
	// the cluster must stay usable afterwards. runWithin enforces
	// promptness with a hard wall-clock bound.

	t.Run("FaultRankDeathMidRound", func(t *testing.T) {
		c := cluster(t)
		plan := machine.FaultPlan{Deaths: []machine.RankDeath{{Rank: p - 1, Round: 1}}}
		for _, m := range c.Machines {
			if err := m.SetFaultPlan(plan); err != nil {
				t.Fatal(err)
			}
		}
		errs := runWithin(t, 30*time.Second, c, context.Background(), func(r *machine.Rank) error {
			// Rank p−1 dies in round 1. A ring starves one more neighbour
			// per round, so p+2 rounds leave no rank able to finish.
			next, prev := (r.ID()+1)%r.P(), (r.ID()+r.P()-1)%r.P()
			for round := 0; round < p+2; round++ {
				r.Send(next, round, []float64{float64(round)})
				got := r.Recv(prev, round)
				machine.Release(got)
				r.Compute(1)
			}
			return nil
		})
		for i, err := range errs {
			if err == nil {
				t.Fatalf("machine %d returned nil from a run with a dead rank", i)
			}
		}
		if err := errs[hostIndex(c, p-1)]; !errors.Is(err, machine.ErrFaultInjected) {
			t.Fatalf("victim host: got %v, want ErrFaultInjected", err)
		}
		// Clearing the plan must restore a clean, reusable cluster.
		for _, m := range c.Machines {
			if err := m.SetFaultPlan(machine.FaultPlan{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := first(runWithin(t, 30*time.Second, c, context.Background(), pingRing)); err != nil {
			t.Fatalf("run after rank death: %v", err)
		}
	})

	t.Run("FaultMessageDrop", func(t *testing.T) {
		c := cluster(t)
		plan := machine.FaultPlan{Drops: []machine.MessageDrop{{Src: 0, Dst: 1}}}
		for _, m := range c.Machines {
			if err := m.SetFaultPlan(plan); err != nil {
				t.Fatal(err)
			}
			m.SetRecvTimeout(150 * time.Millisecond)
		}
		errs := runWithin(t, 30*time.Second, c, context.Background(), pingRing)
		// The starved receiver's host must report the timeout. Other
		// machines may legitimately finish clean on multi-process
		// backends: the drop is sender-side, so a process whose local
		// ranks all completed returns before the abort reaches it.
		if err := errs[hostIndex(c, 1)]; !errors.Is(err, machine.ErrRecvTimeout) {
			t.Fatalf("starved receiver host: got %v, want ErrRecvTimeout", err)
		}
	})

	t.Run("FaultDelayedDelivery", func(t *testing.T) {
		c := cluster(t)
		// The delivery stalls 500ms against a 100ms deadline: the
		// receiver must report the timeout rather than wait it out.
		plan := machine.FaultPlan{Delays: []machine.MessageDelay{
			{Src: 0, Dst: 1, Wall: 500 * time.Millisecond},
		}}
		for _, m := range c.Machines {
			if err := m.SetFaultPlan(plan); err != nil {
				t.Fatal(err)
			}
			m.SetRecvTimeout(100 * time.Millisecond)
		}
		errs := runWithin(t, 30*time.Second, c, context.Background(), pingRing)
		if err := errs[hostIndex(c, 1)]; !errors.Is(err, machine.ErrRecvTimeout) {
			t.Fatalf("delayed receiver host: got %v, want ErrRecvTimeout", err)
		}
	})

	t.Run("FaultSlowRank", func(t *testing.T) {
		c := cluster(t)
		// A straggler alone is a perturbation, not a failure: the run
		// must still complete when the deadline accommodates it…
		plan := machine.FaultPlan{Slow: []machine.SlowRank{
			{Rank: 2, Factor: 4, PerCompute: 50 * time.Millisecond},
		}}
		for _, m := range c.Machines {
			if err := m.SetFaultPlan(plan); err != nil {
				t.Fatal(err)
			}
		}
		slowRing := func(r *machine.Rank) error {
			r.Compute(1 << 10)
			return pingRing(r)
		}
		if err := first(runWithin(t, 30*time.Second, c, context.Background(), slowRing)); err != nil {
			t.Fatalf("straggler must not fail an undeadlined run: %v", err)
		}
		// …and surface as ErrRecvTimeout somewhere when it cannot keep
		// a tight deadline.
		for _, m := range c.Machines {
			m.SetRecvTimeout(10 * time.Millisecond)
		}
		errs := runWithin(t, 30*time.Second, c, context.Background(), func(r *machine.Rank) error {
			r.Compute(1 << 10) // the straggler stalls 50ms here
			return pingRing(r)
		})
		timedOut := false
		for _, err := range errs {
			if errors.Is(err, machine.ErrRecvTimeout) {
				timedOut = true
			}
		}
		if !timedOut {
			t.Fatalf("no rank reported ErrRecvTimeout waiting on the straggler: %v", errs)
		}
	})

	// The recovery section: a seeded rank death on the first attempt,
	// Cluster.Recover, then a re-run of the same program — which must
	// succeed and reproduce the fault-free result bitwise. This is the
	// transport-level contract the engine's WithRetry loop builds on.

	t.Run("RecoveryRetryAfterRankDeath", func(t *testing.T) {
		c := cluster(t)
		record := make([]float64, p)
		prog := func(r *machine.Rank) error {
			// A deterministic multi-round reduction whose per-rank result
			// depends on every round's traffic, so any replay divergence
			// shows up in the recorded values — and long enough (p+2
			// rounds) that a death in round 1 starves every rank.
			acc := float64(r.ID() + 1)
			next, prev := (r.ID()+1)%r.P(), (r.ID()+r.P()-1)%r.P()
			for round := 0; round < p+2; round++ {
				r.Send(next, 30+round, []float64{acc + float64(round)})
				got := r.Recv(prev, 30+round)
				acc = acc*3 + got[0]
				machine.Release(got)
				r.Compute(1)
			}
			record[r.ID()] = acc
			return nil
		}

		// Fault-free baseline.
		if err := first(runWithin(t, 30*time.Second, c, context.Background(), prog)); err != nil {
			t.Fatalf("fault-free baseline: %v", err)
		}
		want := append([]float64(nil), record...)

		// Seeded kill: rank p−1 dies at its round-1 Compute, on the first
		// attempt only.
		plan := machine.FaultPlan{Deaths: []machine.RankDeath{{Rank: p - 1, Round: 1, OnAttempt: 1}}}
		for _, m := range c.Machines {
			if err := m.SetFaultPlan(plan); err != nil {
				t.Fatal(err)
			}
		}
		for i := range record {
			record[i] = 0
		}
		errs := runWithin(t, 30*time.Second, c, context.Background(), prog)
		for i, err := range errs {
			if err == nil {
				t.Fatalf("machine %d returned nil from the killed attempt", i)
			}
		}
		if err := errs[hostIndex(c, p-1)]; !errors.Is(err, machine.ErrFaultInjected) {
			t.Fatalf("victim host: got %v, want ErrFaultInjected", err)
		}

		// Recover, then retry: the death was scripted for attempt 1 only,
		// so the second attempt must complete and match the baseline
		// bitwise.
		if c.Recover != nil {
			if err := c.Recover(); err != nil {
				t.Fatalf("recover: %v", err)
			}
		}
		if err := first(runWithin(t, 30*time.Second, c, context.Background(), prog)); err != nil {
			t.Fatalf("retry after recovery: %v", err)
		}
		for i, w := range want {
			if record[i] != w {
				t.Fatalf("rank %d: retried result %v differs from fault-free %v", i, record[i], w)
			}
		}
	})

	t.Run("ReuseAndCounterReset", func(t *testing.T) {
		c := cluster(t)
		if err := first(c.run(context.Background(), pingRing)); err != nil {
			t.Fatal(err)
		}
		want := c.HostOf(1).Counters(1)
		if want.SentWords == 0 || want.RecvWords == 0 {
			t.Fatalf("rank 1 counted no traffic: %+v", want)
		}
		if err := first(c.run(context.Background(), pingRing)); err != nil {
			t.Fatal(err)
		}
		if got := c.HostOf(1).Counters(1); got != want {
			t.Fatalf("counters not reset between runs: first %+v, second %+v", want, got)
		}
	})
}

// mixedTraffic is the seeded program of AccountingIdentical: every rank
// derives the same schedule — copied, owned, relayed and self-sends of
// assorted lengths (empty included) on three tags — posts its own part,
// charges some flops and then takes what is addressed to it.
func mixedTraffic(r *machine.Rank) error {
	type msg struct{ src, dst, tag, words, kind int }
	rng := rand.New(rand.NewSource(23))
	sched := make([]msg, 40*r.P())
	for i := range sched {
		sched[i] = msg{src: rng.Intn(r.P()), dst: rng.Intn(r.P()), tag: 60 + rng.Intn(3), words: rng.Intn(9), kind: rng.Intn(3)}
	}
	for i, s := range sched {
		if s.src != r.ID() {
			continue
		}
		data := machine.Loan(s.words)
		for j := range data {
			data[j] = float64(i)
		}
		switch s.kind {
		case 0:
			r.Send(s.dst, s.tag, data)
			machine.Release(data)
		case 1:
			r.SendOwned(s.dst, s.tag, data)
		default:
			r.SendAt(s.dst, s.tag, data, r.Now())
			machine.Release(data)
		}
	}
	r.Compute(int64(100 + r.ID()))
	for i, s := range sched {
		if s.dst != r.ID() {
			continue
		}
		got := r.Recv(s.src, s.tag)
		if len(got) != s.words || (s.words > 0 && got[0] != float64(i)) {
			return fmt.Errorf("rank %d: message %d from %d (tag %d) arrived as %v, want %d words of %d",
				r.ID(), i, s.src, s.tag, got, s.words, i)
		}
		machine.Release(got)
	}
	return nil
}

// pingRing is the minimal all-ranks program reused by several
// subtests: each rank sends one message around a ring and verifies
// the one it receives.
func pingRing(r *machine.Rank) error {
	dst := (r.ID() + 1) % r.P()
	src := (r.ID() + r.P() - 1) % r.P()
	r.Send(dst, 21, []float64{float64(r.ID()), 1, 2, 3})
	got := r.Recv(src, 21)
	if len(got) != 4 || got[0] != float64(src) {
		return fmt.Errorf("rank %d: ring payload %v, want leading %d", r.ID(), got, src)
	}
	machine.Release(got)
	return nil
}

// runWithin is run with a hard wall-clock bound: a cluster that fails
// to unwind within d is reported as a deadlock and the test dies. The
// bound is deliberately generous — it exists to catch hangs, not to
// benchmark.
func runWithin(t *testing.T, d time.Duration, c *Cluster, ctx context.Context, program func(*machine.Rank) error) []error {
	t.Helper()
	done := make(chan []error, 1)
	go func() { done <- c.run(ctx, program) }()
	select {
	case errs := <-done:
		return errs
	case <-time.After(d):
		t.Fatalf("deadlock: injected fault did not surface within %v", d)
		return nil
	}
}

func hostIndex(c *Cluster, rank int) int {
	host := c.HostOf(rank)
	for i, m := range c.Machines {
		if m == host {
			return i
		}
	}
	return 0
}
