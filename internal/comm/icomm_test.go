package comm

import (
	"testing"

	"cosma/internal/machine"
)

// TestIBcastMatchesBcast runs the asynchronous broadcast over every
// size and root and checks payloads and tree volume against the
// blocking collective's contract.
func TestIBcastMatchesBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 13} {
		for root := 0; root < n; root++ {
			m := machine.New(n)
			payload := []float64{1, 2, 3, 4}
			ids := make([]int, n)
			for i := range ids {
				ids[i] = i
			}
			err := m.Run(func(r *machine.Rank) error {
				g := groupOf(r, ids)
				var data []float64
				if g.Index() == root {
					data = payload
				}
				got := g.IBcast(root, data, 10).Wait()
				if len(got) != 4 || got[0] != 1 || got[3] != 4 {
					t.Errorf("n=%d root=%d rank=%d got %v", n, root, r.ID(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
			var recv int64
			for i := 0; i < n; i++ {
				recv += m.Counters(i).RecvWords
			}
			if want := int64(4 * (n - 1)); recv != want {
				t.Fatalf("n=%d root=%d: received %d words, want %d", n, root, recv, want)
			}
		}
	}
}

// TestIBcastTestPolls drives an asynchronous broadcast entirely through
// Test: members poll until their payload lands, with a barrier ensuring
// the root has pushed before the first poll.
func TestIBcastTestPolls(t *testing.T) {
	m := machine.New(4)
	ids := []int{0, 1, 2, 3}
	err := m.Run(func(r *machine.Rank) error {
		g := groupOf(r, ids)
		var data []float64
		if g.Index() == 0 {
			data = []float64{7}
		}
		p := g.IBcast(0, data, 5)
		var got []float64
		ok := false
		if r.ID() == 0 {
			got, ok = p.Wait(), true
		}
		for !ok {
			got, ok = p.Test()
		}
		if len(got) != 1 || got[0] != 7 {
			t.Errorf("rank %d: Test-driven IBcast got %v", r.ID(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIBcastOverlapsComputeThroughTree is the end-to-end overlap
// property on a depth-2 tree: every member posts the broadcast, then
// computes, then settles. With landing-time-stamped relays, the leaf's
// transfer chains off the arrival times alone, so every clock stays at
// the compute time — none of the payload movement appears on any rank's
// critical path.
func TestIBcastOverlapsComputeThroughTree(t *testing.T) {
	net := machine.NetworkParams{Name: "unit", Alpha: 1, Beta: 1, Gamma: 1}
	const flops = 1000
	const words = 10
	m := machine.NewTimed(4, net) // binary tree rooted at 0: 0→{1,2}, 1→{3}
	ids := []int{0, 1, 2, 3}
	err := m.Run(func(r *machine.Rank) error {
		g := groupOf(r, ids)
		var data []float64
		if g.Index() == 0 {
			data = make([]float64, words)
		}
		p := g.IBcast(0, data, 5)
		r.Compute(flops)
		got := p.Wait()
		if len(got) != words {
			t.Errorf("rank %d: got %d words", r.ID(), len(got))
		}
		// Landing times chain along arrivals: root sends depart at α·2
		// (two injections), rank 1 lands by ~α+β·w and relays from
		// there — all far below the compute time.
		if at := p.At(); at >= flops {
			t.Errorf("rank %d: payload landed at %v, not overlapped", r.ID(), at)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, clock := range m.Times() {
		if clock > flops+3*net.Alpha {
			t.Errorf("rank %d clock = %v: broadcast leaked onto the compute critical path (want ≈ %v)", id, clock, flops)
		}
		if clock < flops {
			t.Errorf("rank %d clock = %v < compute time %v", id, clock, flops)
		}
	}
}
