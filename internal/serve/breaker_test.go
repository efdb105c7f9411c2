package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cosma"
)

// TestBreakerTransitions drives the full state machine deterministically
// with an explicit clock: closed → open on threshold consecutive
// failures → still open within the cooldown → half-open probe → re-open
// on probe failure → half-open again → closed on probe success.
func TestBreakerTransitions(t *testing.T) {
	now := time.Unix(1000, 0)
	br := &breaker{threshold: 3, cooldown: 5 * time.Second}

	mustRoute := func(wantPrimary, wantProbe bool) {
		t.Helper()
		primary, probe := br.route(now)
		if primary != wantPrimary || probe != wantProbe {
			t.Fatalf("route in state %v: (primary, probe) = (%v, %v), want (%v, %v)",
				br.state, primary, probe, wantPrimary, wantProbe)
		}
	}

	// Closed: everything routes primary; a success resets the streak.
	mustRoute(true, false)
	br.onResult(now, false, true)
	br.onResult(now, false, true)
	br.onResult(now, false, false) // success wipes the streak
	if br.state != breakerClosed || br.fails != 0 {
		t.Fatalf("state after interrupted streak: %v fails=%d", br.state, br.fails)
	}

	// Three consecutive failures trip it.
	for i := 0; i < 3; i++ {
		mustRoute(true, false)
		br.onResult(now, false, true)
	}
	if br.state != breakerOpen {
		t.Fatalf("state after %d failures: %v, want open", br.threshold, br.state)
	}

	// Open: within the cooldown everything degrades.
	now = now.Add(4 * time.Second)
	mustRoute(false, false)

	// Cooldown elapsed: exactly one probe goes primary, the rest degrade.
	now = now.Add(2 * time.Second)
	mustRoute(true, true)
	if br.state != breakerHalfOpen {
		t.Fatalf("state during probe: %v, want half-open", br.state)
	}
	mustRoute(false, false)

	// Probe failure re-opens for another full cooldown.
	br.onResult(now, true, true)
	if br.state != breakerOpen {
		t.Fatalf("state after failed probe: %v, want open", br.state)
	}
	mustRoute(false, false)

	// Next probe succeeds: closed, failure streak cleared.
	now = now.Add(6 * time.Second)
	mustRoute(true, true)
	br.onResult(now, true, false)
	if br.state != breakerClosed || br.fails != 0 {
		t.Fatalf("state after successful probe: %v fails=%d, want closed/0", br.state, br.fails)
	}
	mustRoute(true, false)
}

// TestServerBreakerDegradesAndRecovers runs the breaker end to end
// through the serving path: a shard whose engine fails its first two
// executions (scripted rank deaths) trips the circuit, requests degrade
// to the fallback engine while it is open, and once the cooldown
// elapses the half-open probe finds the engine healthy again and closes
// the circuit.
func TestServerBreakerDegradesAndRecovers(t *testing.T) {
	s := newTestServer(t, Options{
		Engine: []cosma.Option{
			cosma.WithProcs(4), cosma.WithMemory(1 << 14),
			// Attempt 1 kills rank 1, attempt 2 kills rank 2; attempt 3 on
			// is clean — a transient outage the probe can clear.
			cosma.WithFaultPlan(cosma.FaultPlan{Deaths: []cosma.RankDeath{
				{Rank: 1, Round: 0, OnAttempt: 1},
				{Rank: 2, Round: 0, OnAttempt: 2},
			}}),
		},
		Fallback:         []cosma.Option{cosma.WithProcs(4), cosma.WithMemory(1 << 14)},
		Shards:           1,
		BreakerThreshold: 2,
		BreakerCooldown:  5 * time.Second,
	})
	var mu sync.Mutex
	now := time.Unix(2000, 0)
	s.clock = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	a := cosma.RandomMatrix(32, 32, 1)
	b := cosma.RandomMatrix(32, 32, 2)
	want := reference4x32(t, a, b)
	do := func() error {
		_, _, err := s.Multiply(context.Background(), a, b)
		return err
	}

	// Two failures trip the threshold-2 circuit.
	for i := 0; i < 2; i++ {
		if err := do(); !errors.Is(err, cosma.ErrFaultInjected) {
			t.Fatalf("request %d: err = %v, want ErrFaultInjected", i, err)
		}
	}
	if st := s.Stats(); st.BreakerOpenShards != 1 || st.BatchFailures != 2 {
		t.Fatalf("after trip: %d open shards, %d batch failures; want 1 and 2", st.BreakerOpenShards, st.BatchFailures)
	}

	// Open: the fallback engine answers, correctly.
	got, _, err := s.Multiply(context.Background(), a, b)
	if err != nil {
		t.Fatalf("degraded request: %v", err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("fallback product wrong at word %d", i)
		}
	}
	if st := s.Stats(); st.FallbackBatches != 1 {
		t.Fatalf("fallback batches = %d, want 1", st.FallbackBatches)
	}

	// Cooldown elapsed: the probe runs on the (now healthy) shard engine
	// and closes the circuit.
	advance(6 * time.Second)
	if err := do(); err != nil {
		t.Fatalf("probe request: %v", err)
	}
	if st := s.Stats(); st.BreakerOpenShards != 0 {
		t.Fatalf("circuit still open after a successful probe: %+v", st)
	}
	// And the shard keeps serving directly.
	if err := do(); err != nil {
		t.Fatalf("post-recovery request: %v", err)
	}
	if st := s.Stats(); st.FallbackBatches != 1 {
		t.Fatalf("healthy shard still degrading: %d fallback batches", st.FallbackBatches)
	}
}

// TestServerBreakerFailsFastWithoutFallback proves an open circuit with
// no fallback sheds with ErrShardOpen instead of hammering the sick
// engine.
func TestServerBreakerFailsFastWithoutFallback(t *testing.T) {
	s := newTestServer(t, Options{
		Engine: []cosma.Option{
			cosma.WithProcs(4), cosma.WithMemory(1 << 14),
			cosma.WithFaultPlan(cosma.FaultPlan{Deaths: []cosma.RankDeath{{Rank: 1, Round: 0}}}),
		},
		Shards:           1,
		BreakerThreshold: 1,
	})
	a := cosma.RandomMatrix(16, 16, 1)
	b := cosma.RandomMatrix(16, 16, 2)
	if _, _, err := s.Multiply(context.Background(), a, b); !errors.Is(err, cosma.ErrFaultInjected) {
		t.Fatalf("tripping request: %v, want ErrFaultInjected", err)
	}
	if _, _, err := s.Multiply(context.Background(), a, b); !errors.Is(err, ErrShardOpen) {
		t.Fatalf("open-circuit request: %v, want ErrShardOpen", err)
	}
}

// reference4x32 is the fault-free reference product for the breaker
// tests' fixed engine shape.
func reference4x32(t *testing.T, a, b *cosma.Matrix) *cosma.Matrix {
	t.Helper()
	eng, err := cosma.NewEngine(cosma.WithProcs(4), cosma.WithMemory(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := eng.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
