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
	m := NewWithNetwork(2, nil)
	if _, ok := m.Network(); ok || m.Times() != nil || m.MaxTime() != 0 {
		t.Fatal("nil network must yield an untimed counting machine")
	}
	net := testNet()
	got, ok := NewWithNetwork(2, &net).Network()
	if !ok || got.Name != "test" {
		t.Fatalf("Network() = %+v, %v", got, ok)
	}
}
