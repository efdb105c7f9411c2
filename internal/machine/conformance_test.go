package machine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"cosma/internal/machine"
	"cosma/internal/machine/wire"
)

// The conformance suite is one set of semantic checks — FIFO delivery
// per (src, tag), owned-vs-copied sends, posted receives, accounting,
// cancellation, receive deadlines, machine reuse, and the fault section
// (rank death mid-round, dropped and delayed messages, stragglers: each
// must surface as a prompt error, never a hang) — run against the four
// backends below, so a clock or a link cannot drift from the delivery
// discipline the algorithms assume. Every subtest gets a fresh p-rank
// cluster.
const p = 4

var suite = []struct {
	name  string
	check func(t *testing.T, c *cluster)
}{
	{"FIFOPerKey", checkFIFOPerKey},
	{"OwnedAndCopiedSends", checkOwnedAndCopiedSends},
	{"RequestWaitTest", checkRequestWaitTest},
	{"AccountingIdentical", checkAccountingIdentical},
	{"Cancellation", checkCancellation},
	{"RecvDeadline", checkRecvDeadline},
	{"FaultRankDeathMidRound", checkFaultRankDeathMidRound},
	{"FaultMessageDrop", checkFaultMessageDrop},
	{"FaultDelayedDelivery", checkFaultDelayedDelivery},
	{"FaultSlowRank", checkFaultSlowRank},
	{"RecoveryRetryAfterRankDeath", checkRecoveryRetryAfterRankDeath},
	{"ReuseAndCounterReset", checkReuseAndCounterReset},
}

func TestConformanceCounting(t *testing.T) {
	conform(t, func(*testing.T) *cluster { return &cluster{machines: []*machine.Machine{machine.New(p)}} })
}

func TestConformanceTimed(t *testing.T) {
	conform(t, func(*testing.T) *cluster {
		return &cluster{machines: []*machine.Machine{machine.NewTimed(p, machine.PizDaintNet())}}
	})
}

// TestConformanceLoopback hosts every rank in one process: every peer
// at one address, so wire.New builds the socket-free single-process
// transport a single-process wire engine runs on.
func TestConformanceLoopback(t *testing.T) {
	conform(t, func(t *testing.T) *cluster {
		peers := slices.Repeat([]string{wire.SocketAddrs(t.TempDir(), 1)[0]}, p)
		tr, err := wire.New(wire.Config{Rank: 0, Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		return &cluster{machines: []*machine.Machine{machine.NewLinked(tr)}, recover: tr.Recover}
	})
}

// TestConformanceUnixSockets runs a genuine socket mesh: p transports,
// one rank each, so every byte of every message crosses a connection.
func TestConformanceUnixSockets(t *testing.T) {
	conform(t, func(t *testing.T) *cluster {
		addrs := wire.SocketAddrs(t.TempDir(), p)
		trs := make([]*wire.Transport, p)
		t.Cleanup(func() {
			for _, tr := range trs {
				if tr != nil {
					tr.Close()
				}
			}
		})
		// The processes of a launch start in any order.
		if err := first(concurrently(p, func(i int) (err error) {
			trs[i], err = wire.New(wire.Config{Rank: i, Peers: addrs, DialTimeout: 10 * time.Second})
			return err
		})); err != nil {
			t.Fatalf("bring-up: %v", err)
		}
		c := &cluster{recover: func() error {
			// Survivors of a lost peer re-handshake with each other, so
			// healing one process at a time would deadlock.
			return first(concurrently(p, func(i int) error { return trs[i].Recover() }))
		}}
		for _, tr := range trs {
			c.machines = append(c.machines, machine.NewLinked(tr))
		}
		return c
	})
}

// cluster is one logical machine under test: a single Machine hosting
// all p ranks in process, or one Machine per simulated process.
type cluster struct {
	machines []*machine.Machine
	host     []int        // host[rank] indexes the machine that runs rank
	recover  func() error // heals a multi-process mesh after a failed run; nil in process
}

// conform runs every check of the suite on a fresh cluster from build.
// It first holds the machines' LocalRanks to a partition of [0, p), so
// no lookup of a rank's host can land on the wrong machine.
func conform(t *testing.T, build func(t *testing.T) *cluster) {
	for _, s := range suite {
		t.Run(s.name, func(t *testing.T) {
			c := build(t)
			c.host = slices.Repeat([]int{-1}, p)
			for i, m := range c.machines {
				for _, id := range m.LocalRanks() {
					if id < 0 || id >= p || c.host[id] >= 0 {
						t.Fatalf("machine %d hosts rank %d, out of range or hosted twice", i, id)
					}
					c.host[id] = i
				}
			}
			if id := slices.Index(c.host, -1); id >= 0 {
				t.Fatalf("no machine hosts rank %d", id)
			}
			s.check(t, c)
		})
	}
}

// run executes program on every machine of the cluster at once (the
// multi-process launch discipline) and returns one error per machine.
func (c *cluster) run(ctx context.Context, program func(*machine.Rank) error) []error {
	return concurrently(len(c.machines), func(i int) error { return c.machines[i].RunCtx(ctx, program) })
}

// concurrently calls f(0), …, f(n−1) at once and returns their errors
// in order.
func concurrently(n int, f func(i int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(i)
		}()
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

// runWithin is run with a hard wall-clock bound: a cluster that fails
// to unwind within d is reported as a deadlock and the test dies. The
// bound catches hangs; it does not benchmark.
func runWithin(t *testing.T, d time.Duration, c *cluster, ctx context.Context, program func(*machine.Rank) error) []error {
	t.Helper()
	done := make(chan []error, 1)
	go func() { done <- c.run(ctx, program) }()
	select {
	case errs := <-done:
		return errs
	case <-time.After(d):
		t.Fatalf("deadlock: the run did not unwind within %v", d)
		return nil
	}
}

// setFaultPlan installs plan on every machine of the cluster.
func (c *cluster) setFaultPlan(t *testing.T, plan machine.FaultPlan) {
	t.Helper()
	for _, m := range c.machines {
		if err := m.SetFaultPlan(plan); err != nil {
			t.Fatal(err)
		}
	}
}

func (c *cluster) setRecvTimeout(d time.Duration) {
	for _, m := range c.machines {
		m.SetRecvTimeout(d)
	}
}

func checkFIFOPerKey(t *testing.T, c *cluster) {
	const n = 48
	err := first(c.run(context.Background(), func(r *machine.Rank) error {
		// Interleave two tags to every peer, tag 7 alternating copied and
		// owned sends; per (src, tag) order must survive even though the
		// streams share connections.
		for k := 0; k < n; k++ {
			for dst := 0; dst < r.P(); dst++ {
				if dst == r.ID() {
					continue
				}
				if k%2 == 0 {
					r.Send(dst, 7, []float64{float64(r.ID()*1000 + k)})
				} else {
					owned := machine.Loan(1)
					owned[0] = float64(r.ID()*1000 + k)
					r.SendOwned(dst, 7, owned)
				}
				r.Send(dst, 9, []float64{float64(r.ID()*1000 + k + 500)})
			}
		}
		for src := 0; src < r.P(); src++ {
			if src == r.ID() {
				continue
			}
			for _, tag := range []int{7, 9} {
				for k := 0; k < n; k++ {
					got := r.Recv(src, tag)
					want := float64(src*1000 + k)
					if tag == 9 {
						want += 500
					}
					if len(got) != 1 || got[0] != want {
						return fmt.Errorf("rank %d: tag %d msg %d from %d: got %v want [%v]", r.ID(), tag, k, src, got, want)
					}
					machine.Release(got)
				}
			}
		}
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
}

func checkOwnedAndCopiedSends(t *testing.T, c *cluster) {
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
}

func checkRequestWaitTest(t *testing.T, c *cluster) {
	err := first(c.run(context.Background(), func(r *machine.Rank) error {
		dst := (r.ID() + 1) % r.P()
		src := (r.ID() + r.P() - 1) % r.P()
		// A receive posted before its send, settled after it; a second
		// Wait must return the identical settled payload.
		var req machine.Request
		r.PostRecv(&req, src, 11)
		r.Send(dst, 11, []float64{float64(r.ID())})
		got := req.Wait()
		if len(got) != 1 || got[0] != float64(src) {
			return fmt.Errorf("rank %d: posted receive payload %v, want [%d]", r.ID(), got, src)
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
}

// checkAccountingIdentical holds every backend to the Counters the
// seeded mixedTraffic schedule implies — each message between two
// distinct ranks counted once on each side, self-sends free, Flops as
// charged — and to a plain counting machine running the same program:
// accounting lives in the machine, not in its clock or link.
func checkAccountingIdentical(t *testing.T, c *cluster) {
	want := make([]machine.Counters, p)
	for rank := range want {
		want[rank].Flops = int64(100 + rank)
	}
	var kinds [3]int
	selfSends := 0
	for _, s := range mixedSchedule() {
		kinds[s.kind]++
		if s.src == s.dst {
			selfSends++
			continue
		}
		want[s.src].SentWords += int64(s.words)
		want[s.src].SentMsgs++
		want[s.dst].RecvWords += int64(s.words)
		want[s.dst].RecvMsgs++
	}
	if selfSends == 0 || slices.Contains(kinds[:], 0) {
		t.Fatalf("the schedule lacks a self-send or a send kind: %d self-sends, kinds %v", selfSends, kinds)
	}
	ref := machine.New(p)
	if err := ref.Run(mixedTraffic); err != nil {
		t.Fatal(err)
	}
	if err := first(c.run(context.Background(), mixedTraffic)); err != nil {
		t.Fatal(err)
	}
	for rank := range p {
		got, counted := c.machines[c.host[rank]].Counters(rank), ref.Counters(rank)
		if got != want[rank] || counted != want[rank] {
			t.Errorf("rank %d: counters %+v, counting machine %+v, schedule implies %+v", rank, got, counted, want[rank])
		}
		if want[rank].SentMsgs == 0 || want[rank].RecvWords == 0 {
			t.Errorf("rank %d moved no traffic: %+v", rank, want[rank])
		}
	}
}

func checkCancellation(t *testing.T, c *cluster) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(30*time.Millisecond, cancel)
	errs := runWithin(t, 5*time.Second, c, ctx, func(r *machine.Rank) error {
		// Every rank parks in a receive that is never satisfied.
		r.Recv((r.ID()+1)%r.P(), 404)
		return errors.New("receive of an unsent message returned")
	})
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("machine %d: got %v, want context.Canceled", i, err)
		}
	}
	if err := first(c.run(context.Background(), pingRing)); err != nil {
		t.Fatalf("run after a cancelled one: %v", err)
	}
}

func checkRecvDeadline(t *testing.T, c *cluster) {
	c.setRecvTimeout(100 * time.Millisecond)
	errs := c.run(context.Background(), func(r *machine.Rank) error {
		if r.ID() == 0 {
			r.Recv(1, 404) // never sent: must time out, not hang
			return errors.New("receive of an unsent message returned")
		}
		return nil
	})
	if err := errs[c.host[0]]; !errors.Is(err, machine.ErrRecvTimeout) {
		t.Fatalf("rank 0 host: got %v, want ErrRecvTimeout", err)
	}
	// The machines stay usable: with the deadline lifted, the next run
	// must succeed.
	c.setRecvTimeout(0)
	if err := first(c.run(context.Background(), pingRing)); err != nil {
		t.Fatalf("run after a deadline failure: %v", err)
	}
}

// The fault section: every injected failure class must surface as a
// prompt error on every backend — never a hang — and the cluster must
// stay usable afterwards. runWithin enforces promptness.

func checkFaultRankDeathMidRound(t *testing.T, c *cluster) {
	c.setFaultPlan(t, machine.FaultPlan{Deaths: []machine.RankDeath{{Rank: p - 1, Round: 1}}})
	errs := runWithin(t, 30*time.Second, c, context.Background(), func(r *machine.Rank) error {
		// Rank p−1 dies in round 1. A ring starves one more neighbour per
		// round, so p+2 rounds leave no rank able to finish.
		next, prev := (r.ID()+1)%r.P(), (r.ID()+r.P()-1)%r.P()
		for round := 0; round < p+2; round++ {
			r.Send(next, round, []float64{float64(round)})
			machine.Release(r.Recv(prev, round))
			r.Compute(1)
		}
		return nil
	})
	for i, err := range errs {
		if err == nil {
			t.Fatalf("machine %d returned nil from a run with a dead rank", i)
		}
	}
	if err := errs[c.host[p-1]]; !errors.Is(err, machine.ErrFaultInjected) {
		t.Fatalf("victim host: got %v, want ErrFaultInjected", err)
	}
	// Clearing the plan must restore a clean, reusable cluster.
	c.setFaultPlan(t, machine.FaultPlan{})
	if err := first(runWithin(t, 30*time.Second, c, context.Background(), pingRing)); err != nil {
		t.Fatalf("run after rank death: %v", err)
	}
}

func checkFaultMessageDrop(t *testing.T, c *cluster) {
	c.setFaultPlan(t, machine.FaultPlan{Links: []machine.LinkFault{{Src: 0, Dst: 1, Drop: true}}})
	c.setRecvTimeout(150 * time.Millisecond)
	start := time.Now()
	errs := runWithin(t, 30*time.Second, c, context.Background(), pingRing)
	// The starved receiver's host must report the timeout, promptly.
	// Other machines may legitimately finish clean on multi-process
	// backends: the drop is sender-side, so a process whose local ranks
	// all completed returns before the abort reaches it.
	if err := errs[c.host[1]]; !errors.Is(err, machine.ErrRecvTimeout) {
		t.Fatalf("starved receiver host: got %v, want ErrRecvTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("the drop took %v to surface — not prompt", elapsed)
	}
}

func checkFaultDelayedDelivery(t *testing.T, c *cluster) {
	// The delivery stalls 500ms against a 100ms deadline: the receiver
	// must report the timeout rather than wait it out.
	c.setFaultPlan(t, machine.FaultPlan{Links: []machine.LinkFault{{Src: 0, Dst: 1, Wall: 500 * time.Millisecond}}})
	c.setRecvTimeout(100 * time.Millisecond)
	errs := runWithin(t, 30*time.Second, c, context.Background(), pingRing)
	if err := errs[c.host[1]]; !errors.Is(err, machine.ErrRecvTimeout) {
		t.Fatalf("delayed receiver host: got %v, want ErrRecvTimeout", err)
	}
}

func checkFaultSlowRank(t *testing.T, c *cluster) {
	// A straggler alone is a perturbation, not a failure: the run must
	// still complete when the deadline accommodates it…
	c.setFaultPlan(t, machine.FaultPlan{Slow: []machine.SlowRank{{Rank: 2, Factor: 4, PerCompute: 50 * time.Millisecond}}})
	slowRing := func(r *machine.Rank) error {
		r.Compute(1 << 10) // the straggler stalls 50ms here
		return pingRing(r)
	}
	if err := first(runWithin(t, 30*time.Second, c, context.Background(), slowRing)); err != nil {
		t.Fatalf("straggler must not fail an undeadlined run: %v", err)
	}
	// …and surface as ErrRecvTimeout somewhere when it cannot keep a
	// tight deadline.
	c.setRecvTimeout(10 * time.Millisecond)
	errs := runWithin(t, 30*time.Second, c, context.Background(), slowRing)
	if !slices.ContainsFunc(errs, func(err error) bool { return errors.Is(err, machine.ErrRecvTimeout) }) {
		t.Fatalf("no rank reported ErrRecvTimeout waiting on the straggler: %v", errs)
	}
}

// checkRecoveryRetryAfterRankDeath is the transport-level contract the
// engine's WithRetry loop builds on: a seeded rank death on the first
// attempt, the cluster's recover, then a re-run of the same program,
// which must succeed and reproduce the fault-free result bitwise.
func checkRecoveryRetryAfterRankDeath(t *testing.T, c *cluster) {
	record := make([]float64, p)
	prog := func(r *machine.Rank) error {
		// A deterministic multi-round reduction whose per-rank result
		// depends on every round's traffic, so any replay divergence
		// shows up in the recorded values — and long enough (p+2 rounds)
		// that a death in round 1 starves every rank.
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
	if err := first(runWithin(t, 30*time.Second, c, context.Background(), prog)); err != nil {
		t.Fatalf("fault-free baseline: %v", err)
	}
	want := slices.Clone(record)

	// Rank p−1 dies at its round-1 Compute, on the first attempt only.
	c.setFaultPlan(t, machine.FaultPlan{Deaths: []machine.RankDeath{{Rank: p - 1, Round: 1, OnAttempt: 1}}})
	clear(record)
	errs := runWithin(t, 30*time.Second, c, context.Background(), prog)
	for i, err := range errs {
		if err == nil {
			t.Fatalf("machine %d returned nil from the killed attempt", i)
		}
	}
	if err := errs[c.host[p-1]]; !errors.Is(err, machine.ErrFaultInjected) {
		t.Fatalf("victim host: got %v, want ErrFaultInjected", err)
	}

	// The second attempt must complete and match the baseline bitwise.
	if c.recover != nil {
		if err := c.recover(); err != nil {
			t.Fatalf("recover: %v", err)
		}
	}
	if err := first(runWithin(t, 30*time.Second, c, context.Background(), prog)); err != nil {
		t.Fatalf("retry after recovery: %v", err)
	}
	if !slices.Equal(record, want) {
		t.Fatalf("retried results %v differ from fault-free %v", record, want)
	}
}

func checkReuseAndCounterReset(t *testing.T, c *cluster) {
	if err := first(c.run(context.Background(), pingRing)); err != nil {
		t.Fatal(err)
	}
	host := c.machines[c.host[1]]
	want := host.Counters(1)
	if want.SentWords == 0 || want.RecvWords == 0 {
		t.Fatalf("rank 1 counted no traffic: %+v", want)
	}
	if err := first(c.run(context.Background(), pingRing)); err != nil {
		t.Fatal(err)
	}
	if got := host.Counters(1); got != want {
		t.Fatalf("counters not reset between runs: first %+v, second %+v", want, got)
	}
}

// mixedMsg is one message of the mixedTraffic schedule; kind selects a
// copied (0), owned (1) or relayed (2, SendAt) send.
type mixedMsg struct{ src, dst, tag, words, kind int }

// mixedSchedule is the seeded schedule every rank of mixedTraffic
// derives: 40p messages of 0–8 words on three tags, self-sends included.
func mixedSchedule() []mixedMsg {
	rng := rand.New(rand.NewSource(23))
	sched := make([]mixedMsg, 40*p)
	for i := range sched {
		sched[i] = mixedMsg{src: rng.Intn(p), dst: rng.Intn(p), tag: 60 + rng.Intn(3), words: rng.Intn(9), kind: rng.Intn(3)}
	}
	return sched
}

// mixedTraffic posts a rank's part of mixedSchedule, charges 100 + id
// flops and then takes what is addressed to it.
func mixedTraffic(r *machine.Rank) error {
	sched := mixedSchedule()
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

// pingRing is the minimal all-ranks program several checks reuse: each
// rank sends one message around a ring and verifies the one it gets.
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
