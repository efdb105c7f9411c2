package comm

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"cosma/internal/layout"
	"cosma/internal/machine"
)

// blockingBcast is the tree broadcast written with blocking primitives —
// receive from the parent, send to each child — kept as the reference
// the one tree walk (IBcast) is held to.
func blockingBcast(g *Group, root int, data []float64, tag int) []float64 {
	parent, children := treeLinks(g.Size(), root, g.me)
	if parent >= 0 {
		data = g.rank.Recv(g.ranks[parent], tag)
	}
	for _, c := range children {
		if c >= 0 {
			g.rank.Send(g.ranks[c], tag, data)
		}
	}
	return data
}

// TestBcastClocksEqualSettledIBcast is what Bcast rests on: an IBcast
// settled where it is posted charges every rank's clock exactly what
// the blocking tree broadcast does — receive from the parent, then one
// α per child in order — bit for bit, for every group size and root.
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

// TestPipelineRoundsPostsBothBroadcasts pins the synchronous round loop
// on a 2×2 grid, rank = im + 2·in: A is broadcast down the column group
// {im, im+2} from in = 0, B along the row group {2·in, 2·in+1} from
// im = 0, w words each, in one round with no compute. Rank 2 receives A
// from rank 0 and is B's root for rank 3. Both broadcasts are posted
// before either is settled, so rank 2 sends B at α instead of after A
// lands (2α + β·w), and rank 3, whose ingress takes A then B back to
// back, finishes at α + 2β·w rather than 2α + 2β·w.
func TestPipelineRoundsPostsBothBroadcasts(t *testing.T) {
	net := machine.PizDaintNet()
	const w = 1024 // β·w ≥ α: the transfers, not the posts, set the pace
	m := machine.NewTimed(4, net)
	err := m.Run(func(r *machine.Rank) error {
		im, in := r.ID()%2, r.ID()/2
		colGroup := groupOf(r, []int{im, im + 2})
		rowGroup := groupOf(r, []int{2 * in, 2*in + 1})
		start := func(g *Group, tag int) func(layout.Range) *Pending {
			return func(seg layout.Range) *Pending {
				var data []float64
				if g.Index() == 0 {
					data = make([]float64, seg.Len())
				}
				return g.IBcast(0, data, tag)
			}
		}
		return PipelineRounds(r, []layout.Range{{Lo: 0, Hi: w}}, false,
			start(colGroup, 1), start(rowGroup, 2), func(layout.Range, []float64, []float64) {})
	})
	if err != nil {
		t.Fatal(err)
	}
	a, bw := net.Alpha, net.Beta*w
	for id, want := range []float64{2 * a, 2*a + bw, a + bw, a + 2*bw} {
		if got := m.Times()[id]; math.Abs(got-want) > 1e-12*want {
			t.Errorf("rank %d finished at %.17g s, want %.17g", id, got, want)
		}
	}
}

// TestStreamInterleaving pins Stream's call sequence for per ∈ {2, 4},
// ahead ∈ {0, per} and one or three rounds: with ahead = 0 a round's
// units are posted right before it runs, with ahead = per the next
// round's are too, and run gets its own round's units in posting order.
func TestStreamInterleaving(t *testing.T) {
	for _, per := range []int{2, 4} {
		for _, ahead := range []int{0, per} {
			for _, rounds := range []int{1, 3} {
				var want, got []string
				postRound := func(i int) {
					for j := 0; i < rounds && j < per; j++ {
						want = append(want, fmt.Sprintf("post %d.%d", i, j))
					}
				}
				postRound(0)
				for i := 0; i < rounds; i++ {
					if ahead == per {
						postRound(i + 1)
					}
					want = append(want, fmt.Sprintf("run %d", i))
					if ahead == 0 {
						postRound(i + 1)
					}
				}
				err := machine.New(1).Run(func(r *machine.Rank) error {
					self := groupOf(r, []int{0})
					return Stream(r, rounds, per, ahead, func(i, j int) *Pending {
						got = append(got, fmt.Sprintf("post %d.%d", i, j))
						return self.IBcast(0, []float64{float64(i*per + j)}, 1)
					}, func(i int, units []*Pending) {
						got = append(got, fmt.Sprintf("run %d", i))
						if len(units) != per {
							t.Errorf("per %d: round %d ran on %d units", per, i, len(units))
						}
						for j, u := range units {
							if d := u.Wait(); d[0] != float64(i*per+j) {
								t.Errorf("per %d ahead %d: round %d unit %d is unit %v", per, ahead, i, j, d[0])
							}
						}
					})
				})
				if err != nil {
					t.Fatal(err)
				}
				if g, w := strings.Join(got, ", "), strings.Join(want, ", "); g != w {
					t.Errorf("per %d ahead %d rounds %d:\n got %s\nwant %s", per, ahead, rounds, g, w)
				}
			}
		}
	}
}

// TestStreamStopsWhenCancelled: a context cancelled during round 1 stops
// the loop before round 2, and Stream returns the context's error.
func TestStreamStopsWhenCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran []int
	var streamErr error
	err := machine.New(1).RunCtx(ctx, func(r *machine.Rank) error {
		self := groupOf(r, []int{0})
		streamErr = Stream(r, 5, 2, 2, func(int, int) *Pending { return self.IBcast(0, nil, 1) },
			func(i int, _ []*Pending) {
				ran = append(ran, i)
				if i == 1 {
					cancel()
				}
			})
		return streamErr
	})
	if streamErr != ctx.Err() || err != ctx.Err() || len(ran) != 2 {
		t.Errorf("ran rounds %v, Stream returned %v, run %v; want rounds [0 1] and %v", ran, streamErr, err, ctx.Err())
	}
}

// TestPendingWaitAgain: a settled Pending's second Wait returns the same
// buffer and takes nothing more from the mailbox.
func TestPendingWaitAgain(t *testing.T) {
	m := machine.New(2)
	err := m.Run(func(r *machine.Rank) error {
		g := groupOf(r, []int{0, 1})
		if g.Index() == 0 {
			g.IBcast(0, []float64{1, 2, 3}, 7)
			return nil
		}
		p := g.IBcast(0, nil, 7)
		first := p.Wait()
		before := m.Counters(r.ID())
		if again := p.Wait(); &again[0] != &first[0] || len(again) != len(first) {
			t.Errorf("second Wait returned %v at %p, first %v at %p", again, again, first, first)
		}
		if after := m.Counters(r.ID()); after != before {
			t.Errorf("second Wait moved the counters: %+v, then %+v", before, after)
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
