package machine

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestIRecvRoundTrip exercises the posted receive on the counting
// machine: a request posted before the matching send exists completes
// under Wait, a second Wait returns the same buffer, and the counters
// match a blocking exchange.
func TestIRecvRoundTrip(t *testing.T) {
	m := New(2)
	err := m.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			req := r.IRecv(1, 7)
			rendezvous(r, 8) // rank 1 sends only after this
			data := req.Wait()
			if len(data) != 3 || data[0] != 42 {
				t.Errorf("IRecv payload = %v, want [42 0 0]", data)
			}
			if again := req.Wait(); &again[0] != &data[0] {
				t.Error("second Wait returned a different buffer")
			}
		case 1:
			rendezvous(r, 8)
			r.Send(0, 7, []float64{42, 0, 0})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counters(0).RecvWords; got != 3 {
		t.Errorf("rank 0 RecvWords = %d, want 3", got)
	}
	if got := m.Counters(1).SentWords; got != 3 {
		t.Errorf("rank 1 SentWords = %d, want 3", got)
	}
}

// TestRequestWaitInterruptedByCancel parks every rank in a Request.Wait
// that will never be satisfied and cancels the context: RunCtx must
// unwind the parked Waits and return ctx.Err() instead of deadlocking —
// the pipelined round loops rely on this to make overlapped executions
// cancellable.
func TestRequestWaitInterruptedByCancel(t *testing.T) {
	m := New(4)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- m.RunCtx(ctx, func(r *Rank) error {
			req := r.IRecv((r.ID()+1)%r.P(), 42) // nobody ever sends
			req.Wait()
			return nil
		})
	}()
	time.Sleep(10 * time.Millisecond) // let the ranks park in Wait
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCtx returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled RunCtx did not return from Request.Wait")
	}
	// The machine must remain reusable after the interrupted run.
	if err := m.Run(func(r *Rank) error {
		req := r.IRecv((r.ID()+1)%r.P(), 1)
		r.Send((r.ID()+r.P()-1)%r.P(), 1, []float64{1})
		req.Wait()
		return nil
	}); err != nil {
		t.Fatalf("machine not reusable after interrupted Wait: %v", err)
	}
}

// overlapNet is a synthetic network with unit constants so the clock
// arithmetic in the overlap tests is exact.
func overlapNet() NetworkParams {
	return NetworkParams{Name: "unit", Alpha: 1, Beta: 1, Gamma: 1}
}

// TestTimedIRecvOverlapsCompute checks the §7.3 semantics of the timed
// transport's ingress port: a transfer posted before a compute phase
// runs concurrently with it, so the receiver's final clock is the
// maximum of the two, not the sum — while the blocking Recv path keeps
// charging them serially.
func TestTimedIRecvOverlapsCompute(t *testing.T) {
	const words = 10
	const flops = 100
	run := func(blocking bool) []float64 {
		m := NewTimed(2, overlapNet())
		err := m.Run(func(r *Rank) error {
			if r.ID() == 0 {
				r.Send(1, 5, make([]float64, words)) // α=1: departs at t=1
				return nil
			}
			if blocking {
				Release(r.Recv(0, 5)) // serial: clock = 1 + β·10 = 11
				r.Compute(flops)      // then 11 + 100 = 111
				return nil
			}
			req := r.IRecv(0, 5)
			r.Compute(flops) // clock = 100; transfer lands at 11 meanwhile
			Release(req.Wait())
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.Times()
	}
	if got := run(true)[1]; got != 111 {
		t.Errorf("blocking receiver clock = %v, want 111 (serial α+β·w+γ·f)", got)
	}
	if got := run(false)[1]; got != 100 {
		t.Errorf("overlapped receiver clock = %v, want 100 (transfer fully hidden)", got)
	}
}

// TestTimedIRecvTransferOutlivesCompute is the other overlap regime: a
// transfer longer than the concurrent compute leaves the receiver
// waiting for the wire, so the clock lands at the transfer completion.
func TestTimedIRecvTransferOutlivesCompute(t *testing.T) {
	const words = 100
	const flops = 10
	m := NewTimed(2, overlapNet())
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 5, make([]float64, words)) // departs at 1
			return nil
		}
		req := r.IRecv(0, 5)
		r.Compute(flops) // clock = 10
		Release(req.Wait())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Transfer: starts at departure 1, runs β·100 → completes at 101.
	if got := m.Times()[1]; got != 101 {
		t.Errorf("receiver clock = %v, want 101 (wait for the wire)", got)
	}
}

// TestTimedIngressSerializesTransfers posts two receives whose
// transfers overlap one compute phase: they share the single ingress
// port, so they serialize against each other even though both hide
// behind the compute.
func TestTimedIngressSerializesTransfers(t *testing.T) {
	m := NewTimed(2, overlapNet())
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 1, make([]float64, 10)) // departs at 1
			r.Send(1, 2, make([]float64, 10)) // departs at 2
			return nil
		}
		reqA := r.IRecv(0, 1)
		reqB := r.IRecv(0, 2)
		r.Compute(100) // clock = 100
		at1 := reqA.Wait()
		at2 := reqB.Wait()
		// First transfer: max(port 0, departs 1) + 10 = 11.
		// Second: max(port 11, departs 2) + 10 = 21.
		if got := reqA.At(); got != 11 {
			t.Errorf("first transfer landed at %v, want 11", got)
		}
		if got := reqB.At(); got != 21 {
			t.Errorf("second transfer landed at %v, want 21 (port serialized)", got)
		}
		Release(at1)
		Release(at2)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Times()[1]; got != 100 {
		t.Errorf("receiver clock = %v, want 100 (both transfers hidden)", got)
	}
}

// TestTimedSendAtStampsDeparture relays a payload with an explicit
// landing stamp: the downstream receiver's transfer must chain off that
// stamp, not off the relaying rank's compute-advanced clock.
func TestTimedSendAtStampsDeparture(t *testing.T) {
	m := NewTimed(3, overlapNet())
	err := m.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			r.Send(1, 1, make([]float64, 10)) // departs at 1
		case 1:
			req := r.IRecv(0, 1)
			r.Compute(1000) // clock = 1000; transfer lands at 11
			data := req.Wait()
			// Relay at the landing time: departs at 11 + α = 12, even
			// though this rank's clock reads 1000.
			r.SendAt(2, 1, data, req.At())
			Release(data)
		case 2:
			data := r.IRecv(1, 1).Wait()
			Release(data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 2: transfer starts at departure 12, + β·10 → 22.
	if got := m.Times()[2]; got != 22 {
		t.Errorf("relayed receiver clock = %v, want 22 (stamped departure, not relayer's clock)", got)
	}
}

// TestTimedSendAtSerializesInjections relays one payload to two peers
// with the same landing stamp: the injection port serializes the two
// departures (at+α, at+2α), matching the per-child α sequence a
// blocking tree broadcast charges.
func TestTimedSendAtSerializesInjections(t *testing.T) {
	m := NewTimed(3, overlapNet())
	err := m.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			data := make([]float64, 10)
			r.SendAt(1, 1, data, 5) // departs at 5+α = 6
			r.SendAt(2, 1, data, 5) // port busy until 6: departs at 7
		case 1, 2:
			Release(r.IRecv(0, 1).Wait())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1: departure 6 + β·10 = 16; rank 2: departure 7 + β·10 = 17.
	if got := m.Times()[1]; got != 16 {
		t.Errorf("first relayed receiver clock = %v, want 16", got)
	}
	if got := m.Times()[2]; got != 17 {
		t.Errorf("second relayed receiver clock = %v, want 17 (injections serialized)", got)
	}
}
