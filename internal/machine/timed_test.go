package machine

import (
	"math"
	"testing"
)

// testNet returns round numbers so expected clocks are exact.
func testNet() NetworkParams {
	return NetworkParams{Name: "test", Alpha: 1, Beta: 0.1, Gamma: 0.001}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestTimedPingClocks(t *testing.T) {
	m := NewTimed(2, testNet())
	err := m.Run(func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 7, make([]float64, 10))
		} else {
			r.Recv(0, 7)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sender: α = 1. Receiver: max(0, departure=1) + β·10 = 1 + 1 = 2.
	times := m.Times()
	if !almost(times[0], 1) || !almost(times[1], 2) {
		t.Fatalf("clocks = %v, want [1 2]", times)
	}
	if !almost(m.MaxTime(), 2) {
		t.Fatalf("MaxTime = %v", m.MaxTime())
	}
}

func TestTimedReceiverSerializesBandwidth(t *testing.T) {
	// Two senders inject concurrently; the receiver's ingress port must
	// serialize the β terms even though the messages overlap in flight.
	m := NewTimed(3, testNet())
	err := m.Run(func(r *Rank) error {
		switch r.ID() {
		case 0, 1:
			r.Send(2, 1, make([]float64, 20))
		case 2:
			r.Recv(0, 1)
			r.Recv(1, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both departures at α = 1; receiver: max(0,1)+2 = 3, then max(3,1)+2 = 5.
	if got := m.Times()[2]; !almost(got, 5) {
		t.Fatalf("receiver clock = %v, want 5", got)
	}
}

func TestTimedComputeAdvancesClock(t *testing.T) {
	m := NewTimed(1, testNet())
	err := m.Run(func(r *Rank) error {
		r.Compute(5000)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Times()[0]; !almost(got, 5) { // γ·flops = 0.001·5000
		t.Fatalf("clock = %v, want 5", got)
	}
	if got := m.Counters(0).Flops; got != 5000 {
		t.Fatalf("Flops counter = %d", got)
	}
}

func TestTimedSelfTrafficFree(t *testing.T) {
	m := NewTimed(1, testNet())
	err := m.Run(func(r *Rank) error {
		r.Send(0, 1, []float64{1, 2, 3})
		r.Recv(0, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Times()[0]; got != 0 {
		t.Fatalf("self traffic advanced clock to %v", got)
	}
}

func TestTimedDependencyChainsThroughTree(t *testing.T) {
	// 0 → 1 → 2 relay: rank 2's clock must include both hops even though
	// rank 0 and rank 1 send "concurrently" in wall-clock terms.
	m := NewTimed(3, testNet())
	w := 10
	err := m.Run(func(r *Rank) error {
		switch r.ID() {
		case 0:
			r.Send(1, 1, make([]float64, w))
		case 1:
			buf := r.Recv(0, 1)
			r.SendOwned(2, 2, buf)
		case 2:
			r.Recv(1, 2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// hop 1: departs 1, rank1 at 2; send: rank1 at 3 (α), departs 3;
	// rank2: max(0,3) + 1 = 4.
	if got := m.Times()[2]; !almost(got, 4) {
		t.Fatalf("leaf clock = %v, want 4", got)
	}
}

func TestTimedClocksResetBetweenRuns(t *testing.T) {
	m := NewTimed(2, testNet())
	prog := func(r *Rank) error {
		if r.ID() == 0 {
			r.Send(1, 0, make([]float64, 10))
		} else {
			r.Recv(0, 0)
		}
		return nil
	}
	if err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	first := m.MaxTime()
	if err := m.Run(prog); err != nil {
		t.Fatal(err)
	}
	if got := m.MaxTime(); !almost(got, first) {
		t.Fatalf("clock accumulated across runs: %v then %v", first, got)
	}
}

func TestCountingMachineUntimed(t *testing.T) {
	m := New(2)
	if times := m.Times(); times != nil {
		t.Fatalf("counting machine has clocks %v", times)
	}
	if _, ok := m.Network(); ok {
		t.Fatal("counting machine claims a network")
	}
	if m.MaxTime() != 0 {
		t.Fatal("counting machine has nonzero MaxTime")
	}
}

func TestNetworkByName(t *testing.T) {
	for _, name := range []string{"pizdaint", "ethernet", "sharedmem"} {
		net, err := NetworkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if net.Name != name || net.Alpha <= 0 || net.Beta <= 0 || net.Gamma <= 0 {
			t.Fatalf("preset %q = %+v", name, net)
		}
	}
	if _, err := NetworkByName("infiniband"); err == nil {
		t.Fatal("unknown preset must error")
	}
}

func TestNetworkParamsTime(t *testing.T) {
	n := NetworkParams{Alpha: 2, Beta: 3, Gamma: 5}
	if got := n.Time(1, 10, 100); !almost(got, 5*1+3*10+2*100) {
		t.Fatalf("Time = %v", got)
	}
}

func TestNewWithNetwork(t *testing.T) {
	if _, ok := NewWithNetwork(2, nil).Network(); ok {
		t.Fatal("nil network must yield a counting machine")
	}
	net := testNet()
	got, ok := NewWithNetwork(2, &net).Network()
	if !ok || got.Name != "test" {
		t.Fatalf("Network() = %+v, %v", got, ok)
	}
}
