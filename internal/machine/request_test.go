package machine

import "testing"

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
			var req Request
			r.PostRecv(&req, 0, 5)
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
		var req Request
		r.PostRecv(&req, 0, 5)
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
		var reqA Request
		r.PostRecv(&reqA, 0, 1)
		var reqB Request
		r.PostRecv(&reqB, 0, 2)
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
			var req Request
			r.PostRecv(&req, 0, 1)
			r.Compute(1000) // clock = 1000; transfer lands at 11
			data := req.Wait()
			// Relay at the landing time: departs at 11 + α = 12, even
			// though this rank's clock reads 1000.
			r.SendAt(2, 1, data, req.At())
			Release(data)
		case 2:
			Release(r.Recv(1, 1))
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
			Release(r.Recv(0, 1))
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

// TestSendSharedHoldsAndCounts: a payload shared by reference reaches
// its receiver in place, under a hold added for it, and counts its
// logical words on both sides, not the buffer's padded length; a
// dropped message adds no hold, so the owner's and the receiver's Drop
// return the buffer; and one more panics.
func TestSendSharedHoldsAndCounts(t *testing.T) {
	m := New(3)
	if err := m.SetFaultPlan(FaultPlan{Links: []LinkFault{{Src: 0, Dst: 2, Drop: true}}}); err != nil {
		t.Fatal(err)
	}
	sh := Share(Loan(6), 4)
	owner := sh.Data()
	err := m.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			r.SendShared(1, 5, sh)
			r.SendShared(2, 5, sh) // dropped: adds no hold
			sh.Drop()
		case 1:
			var q Request
			r.PostRecv(&q, 0, 5)
			got := q.Wait()
			if &got[0] != &owner[0] || q.Shared() != sh || q.Words() != 4 {
				t.Errorf("received %d words under %p in place %v, want 4 under %p", q.Words(), q.Shared(), &got[0] == &owner[0], sh)
			}
			q.Shared().Drop()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s, r := m.Counters(0).SentWords, m.Counters(1).RecvWords; s != 4 || r != 4 || m.Counters(2).RecvMsgs != 0 {
		t.Errorf("sent %d and received %d words, want 4 each", s, r)
	}
	if sh.Data() != nil {
		t.Error("the buffer outlived the owner's and the receiver's holds")
	}
	defer func() {
		if recover() == nil {
			t.Error("a Drop past the last hold did not panic")
		}
	}()
	sh.Drop()
}
