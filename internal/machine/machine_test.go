package machine

import (
	"errors"
	"testing"
)

// rendezvous sequences the ranks where a test needs every one of them
// to have reached a point: a zero-word message to rank 0 and one back.
func rendezvous(r *Rank, tag int) {
	if r.ID() != 0 {
		r.Send(0, tag, nil)
		r.Recv(0, tag)
		return
	}
	for src := 1; src < r.P(); src++ {
		r.Recv(src, tag)
	}
	for dst := 1; dst < r.P(); dst++ {
		r.Send(dst, tag, nil)
	}
}

func TestPingPong(t *testing.T) {
	m := New(2)
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 7, []float64{1, 2, 3})
			got := r.Recv(1, 8)
			if len(got) != 2 || got[0] != 4 {
				t.Errorf("rank 0 got %v", got)
			}
		} else {
			got := r.Recv(0, 7)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("rank 1 got %v", got)
			}
			r.Send(0, 8, []float64{4, 5})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := m.Counters(0), m.Counters(1)
	if c0.SentWords != 3 || c0.RecvWords != 2 || c0.SentMsgs != 1 || c0.RecvMsgs != 1 {
		t.Fatalf("rank 0 counters %+v", c0)
	}
	if c1.SentWords != 2 || c1.RecvWords != 3 {
		t.Fatalf("rank 1 counters %+v", c1)
	}
	if m.TotalVolume() != 5 {
		t.Fatalf("TotalVolume = %d, want 5", m.TotalVolume())
	}
}

func TestSendCopiesData(t *testing.T) {
	m := New(2)
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			buf := []float64{1, 2}
			r.Send(1, 0, buf)
			buf[0] = 99 // mutate after send; receiver must see the original
		} else {
			got := r.Recv(0, 0)
			if got[0] != 1 {
				t.Errorf("receiver saw mutated buffer: %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagAndSourceMatching(t *testing.T) {
	m := New(3)
	err := m.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			r.Send(2, 5, []float64{10})
		case 1:
			r.Send(2, 6, []float64{20})
		case 2:
			// Receive in the opposite order of arrival possibilities.
			b := r.Recv(1, 6)
			a := r.Recv(0, 5)
			if a[0] != 10 || b[0] != 20 {
				t.Errorf("got %v %v", a, b)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInOrderDeliveryPerSourceTag(t *testing.T) {
	m := New(2)
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			for i := 0; i < 50; i++ {
				r.Send(1, 3, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 50; i++ {
				got := r.Recv(0, 3)
				if got[0] != float64(i) {
					t.Errorf("message %d out of order: %v", i, got)
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSendNotCounted(t *testing.T) {
	m := New(1)
	err := m.Run(func(r *Rank) error {
		r.Send(0, 1, []float64{1, 2, 3})
		got := r.Recv(0, 1)
		if len(got) != 3 {
			t.Errorf("self recv %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(0); c.Volume() != 0 || c.SentMsgs != 0 {
		t.Fatalf("self traffic counted: %+v", c)
	}
}

func TestRunReportsError(t *testing.T) {
	m := New(3)
	want := errors.New("boom")
	err := m.Run(func(r *Rank) error {
		if r.ID() == 1 {
			return want
		}
		return nil
	})
	if !errors.Is(err, want) {
		t.Fatalf("err = %v", err)
	}
}

func TestCountersResetBetweenRuns(t *testing.T) {
	m := New(2)
	prog := func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 0, []float64{1})
		} else {
			r.Recv(0, 0)
		}
		return nil
	}
	if err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(0); c.SentWords != 1 {
		t.Fatalf("counters not reset: %+v", c)
	}
}

func TestManyRanksAllToOne(t *testing.T) {
	p := 64
	m := New(p)
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			sum := 0.0
			for src := 1; src < p; src++ {
				sum += r.Recv(src, 1)[0]
			}
			if want := float64(p*(p-1)) / 2; sum != want {
				t.Errorf("sum = %v, want %v", sum, want)
			}
		} else {
			r.Send(0, 1, []float64{float64(r.ID())})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters(0).RecvMsgs != int64(p-1) {
		t.Fatalf("root received %d messages", m.Counters(0).RecvMsgs)
	}
	if m.MaxMessages() != int64(p-1) {
		t.Fatalf("MaxMessages = %d", m.MaxMessages())
	}
}

func TestKeyedMailboxFIFOUnderMixedSends(t *testing.T) {
	// Same-(src, tag) messages must arrive in send order even when Send
	// and SendOwned interleave and a second tag's traffic is in flight.
	const msgs = 200
	m := New(2)
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			for i := 0; i < msgs; i++ {
				if i%2 == 0 {
					r.Send(1, 3, []float64{float64(i)})
				} else {
					r.SendOwned(1, 3, []float64{float64(i)})
				}
				r.Send(1, 9, []float64{float64(-i)}) // decoy key
			}
		} else {
			for i := 0; i < msgs; i++ {
				if got := r.Recv(0, 3); got[0] != float64(i) {
					t.Errorf("message %d out of order: %v", i, got)
					return nil
				}
			}
			for i := 0; i < msgs; i++ {
				if got := r.Recv(0, 9); got[0] != float64(-i) {
					t.Errorf("decoy %d out of order: %v", i, got)
					return nil
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(1); c.RecvMsgs != 2*msgs {
		t.Fatalf("received %d messages, want %d", c.RecvMsgs, 2*msgs)
	}
}

func TestSendOwnedCountsLikeSend(t *testing.T) {
	m := New(2)
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.SendOwned(1, 0, make([]float64, 5))
		} else {
			if got := r.Recv(0, 0); len(got) != 5 {
				t.Errorf("recv %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(0); c.SentWords != 5 || c.SentMsgs != 1 {
		t.Fatalf("SendOwned miscounted: %+v", c)
	}
}

func TestFailedRunLeavesNoStaleMessages(t *testing.T) {
	// Run 1 dies with a message still undelivered; Run 2 on the same
	// machine must not receive Run 1's payload.
	m := New(2)
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 1, []float64{-1}) // never received
			panic("rank 0 dies after sending")
		}
		r.Recv(0, 2) // never sent: parks rank 1 until the panic unwinds it
		return nil
	})
	if err == nil {
		t.Fatal("expected error from panicked rank")
	}
	err = m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 1, []float64{42})
		} else {
			if got := r.Recv(0, 1); got[0] != 42 {
				t.Errorf("second run received stale payload %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(1); c.RecvMsgs != 1 {
		t.Fatalf("stale message counted: %+v", c)
	}
}

func TestComputeAccumulates(t *testing.T) {
	m := New(2)
	err := m.Run(func(r *Rank) error {
		r.Compute(100)
		r.Compute(23)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Counters(1).Flops; got != 123 {
		t.Fatalf("Flops = %d, want 123", got)
	}
}

func TestLoanReleaseRecycles(t *testing.T) {
	buf := Loan(100)
	if len(buf) != 100 || cap(buf) != 128 {
		t.Fatalf("Loan(100) len %d cap %d", len(buf), cap(buf))
	}
	Release(buf)
	// Non-pool buffers (non-power-of-two capacity) are silently dropped.
	odd := make([]float64, 3, 3)
	Release(odd)
	if got := Loan(0); got != nil {
		t.Fatalf("Loan(0) = %v", got)
	}
	Release(nil)
}

func TestReduceHelper(t *testing.T) {
	m := New(4)
	err := m.Run(func(r *Rank) error {
		if r.ID() != 0 {
			r.Send(0, 1, make([]float64, r.ID()))
		} else {
			for src := 1; src < 4; src++ {
				r.Recv(src, 1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := Reduce(m, int64(0), func(acc int64, c Counters) int64 { return acc + c.RecvWords })
	if sum != 6 {
		t.Fatalf("Reduce sum = %d, want 6", sum)
	}
}

func TestVolumeStats(t *testing.T) {
	m := New(4)
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			for dst := 1; dst < 4; dst++ {
				r.Send(dst, 0, make([]float64, 10*dst))
			}
		} else {
			r.Recv(0, 0)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.TotalVolume(); got != 60 {
		t.Fatalf("TotalVolume = %d, want 60", got)
	}
	if got := m.MaxVolume(); got != 60 { // rank 0 sent 60
		t.Fatalf("MaxVolume = %d, want 60", got)
	}
}
