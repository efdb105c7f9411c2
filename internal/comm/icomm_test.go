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

// blockingBcast is the tree broadcast written with blocking primitives —
// receive from the parent, send to each child — kept as the reference
// the one tree walk (IBcast) is held to.
func blockingBcast(g *Group, root int, data []float64, tag int) []float64 {
	parent, children := g.tree(root)
	if parent >= 0 {
		data = g.rank.Recv(g.ranks[parent], tag)
	}
	for _, c := range children {
		g.rank.Send(g.ranks[c], tag, data)
	}
	return data
}

// TestBcastClocksEqualSettledIBcast is what PipelineRounds' no-overlap
// mode rests on: an IBcast settled where it is posted charges every
// rank's clock exactly what the blocking tree broadcast does — receive
// from the parent, then one α per child in order — bit for bit, for
// every group size and root.
func TestBcastClocksEqualSettledIBcast(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8, 13} {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		for root := 0; root < n; root++ {
			times := func(bcast func(g *Group, data []float64) []float64) []float64 {
				m := machine.NewTimed(n, machine.PizDaintNet())
				err := m.Run(func(r *machine.Rank) error {
					g := groupOf(r, ids)
					// Uneven clocks going in, and traffic after, so a
					// difference in any port's state would surface.
					r.Compute(int64(1000 * (1 + r.ID()%3)))
					var data []float64
					if g.Index() == root {
						data = make([]float64, 96)
					}
					for round := 0; round < 2; round++ {
						got := bcast(g, data)
						if len(got) != 96 {
							t.Errorf("n=%d root=%d rank %d: got %d words", n, root, r.ID(), len(got))
						}
						r.Compute(500)
					}
					return nil
				})
				if err != nil {
					t.Fatalf("n=%d root=%d: %v", n, root, err)
				}
				return m.Times()
			}
			blocking := times(func(g *Group, data []float64) []float64 { return blockingBcast(g, root, data, 10) })
			settled := times(func(g *Group, data []float64) []float64 { return g.IBcast(root, data, 10).Wait() })
			for i := range blocking {
				if blocking[i] != settled[i] {
					t.Fatalf("n=%d root=%d rank %d: blocking clock %v, settled IBcast %v", n, root, i, blocking[i], settled[i])
				}
			}
		}
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
