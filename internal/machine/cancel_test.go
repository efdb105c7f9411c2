package machine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestRunCtxCancelUnblocksRecv parks every rank in a Recv that will
// never be satisfied and cancels: RunCtx must return ctx.Err() instead
// of deadlocking.
func TestRunCtxCancelUnblocksRecv(t *testing.T) {
	m := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- m.RunCtx(ctx, func(r *Rank) error {
			r.Recv((r.ID()+1)%r.P(), 42) // nobody ever sends
			return nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // let the ranks park
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCtx returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled RunCtx did not return")
	}
}

// TestMachineReusableAfterCancel cancels one run mid-flight and then
// reuses the same machine for a full exchange: mailboxes and
// interruption must both reset.
func TestMachineReusableAfterCancel(t *testing.T) {
	m := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the ranks even start
	if err := m.RunCtx(ctx, func(r *Rank) error {
		r.Recv((r.ID()+1)%2, 1)
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("first run returned %v, want context.Canceled", err)
	}

	err := m.Run(func(r *Rank) error {
		peer := (r.ID() + 1) % 2
		r.Send(peer, 3, []float64{float64(r.ID())})
		if got := r.Recv(peer, 3); got[0] != float64(peer) {
			t.Errorf("rank %d received %v", r.ID(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("machine not reusable after cancellation: %v", err)
	}
	if v := m.Counters(0).RecvWords; v != 1 {
		t.Fatalf("counters not reset: rank 0 received %d words", v)
	}
}

// TestRankErrSeesCancellation checks the round-boundary polling path:
// a compute-only program (no Recv to interrupt) must still observe the
// cancelled context through Rank.Err and return it.
func TestRankErrSeesCancellation(t *testing.T) {
	m := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once bool
	done := make(chan error, 1)
	go func() {
		done <- m.RunCtx(ctx, func(r *Rank) error {
			for {
				if err := r.Err(); err != nil {
					return err
				}
				if r.ID() == 0 && !once {
					once = true
					close(started)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCtx returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("round-boundary polling never observed cancellation")
	}
}

// TestRankPanicUnblocksParkedPeers pins down the failure-isolation
// path: when one rank dies, peers parked in a Recv it will never
// satisfy must be torn out, and Run must report the panicking rank as
// the root cause, not its peers' collateral interruption.
func TestRankPanicUnblocksParkedPeers(t *testing.T) {
	m := New(4)
	done := make(chan error, 1)
	go func() {
		done <- m.Run(func(r *Rank) error {
			if r.ID() == 3 {
				panic("rank 3 exploded")
			}
			r.Recv(3, 11) // rank 3 dies before sending
			return nil
		})
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "rank 3 panicked") {
			t.Fatalf("Run returned %v, want rank 3's panic as root cause", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("peers parked in Recv were never unblocked after a rank panic")
	}

	// The machine must be reusable after the failure.
	if err := m.Run(func(r *Rank) error { rendezvous(r, 12); return nil }); err != nil {
		t.Fatalf("machine not reusable after a rank panic: %v", err)
	}
}

// TestRunCtxTimedTransport ensures interruption also works on the timed
// transport (which shares the counting delivery machinery).
func TestRunCtxTimedTransport(t *testing.T) {
	m := NewTimed(2, PizDaintNet())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- m.RunCtx(ctx, func(r *Rank) error {
			r.Recv((r.ID()+1)%2, 9)
			return nil
		})
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("timed RunCtx returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled timed RunCtx did not return")
	}
}
