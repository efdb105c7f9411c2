package comm

import (
	"math/rand"
	"testing"

	"cosma/internal/machine"
)

func groupOf(r *machine.Rank, ids []int) *Group { return NewGroup(r, ids) }

func TestBcastAllSizesAllRoots(t *testing.T) {
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
				got := g.Bcast(root, data, 10)
				if len(got) != 4 || got[3] != 4 {
					t.Errorf("n=%d root=%d rank=%d got %v", n, root, r.ID(), got)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("n=%d root=%d: %v", n, root, err)
			}
			// Tree broadcast volume: every non-root receives the payload
			// exactly once.
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

func TestBcastSubsetGroup(t *testing.T) {
	// A group over a strided subset of a larger machine.
	m := machine.New(8)
	ids := []int{1, 3, 5, 7}
	err := m.Run(func(r *machine.Rank) error {
		if r.ID()%2 == 0 {
			return nil // not in the group
		}
		g := groupOf(r, ids)
		var data []float64
		if g.Index() == 2 {
			data = []float64{42}
		}
		got := g.Bcast(2, data, 3)
		if got[0] != 42 {
			t.Errorf("rank %d got %v", r.ID(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Counters(0).Volume() != 0 {
		t.Fatal("non-member rank has traffic")
	}
}

func TestReduceSums(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		for root := 0; root < n; root += 2 {
			m := machine.New(n)
			ids := make([]int, n)
			for i := range ids {
				ids[i] = i
			}
			err := m.Run(func(r *machine.Rank) error {
				g := groupOf(r, ids)
				data := []float64{float64(r.ID()), 1}
				got := g.Reduce(root, data, 5)
				if g.Index() == root {
					wantSum := float64(n*(n-1)) / 2
					if got[0] != wantSum || got[1] != float64(n) {
						t.Errorf("n=%d root=%d: got %v", n, root, got)
					}
				} else if got != nil {
					t.Errorf("non-root got %v", got)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestReduceDoesNotMutateInput(t *testing.T) {
	m := machine.New(3)
	ids := []int{0, 1, 2}
	err := m.Run(func(r *machine.Rank) error {
		g := groupOf(r, ids)
		data := []float64{float64(r.ID() + 1)}
		g.Reduce(0, data, 1)
		if data[0] != float64(r.ID()+1) {
			t.Errorf("rank %d input mutated to %v", r.ID(), data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewGroupValidation(t *testing.T) {
	m := machine.New(2)
	err := m.Run(func(r *machine.Rank) error {
		if r.ID() != 0 {
			return nil
		}
		for _, bad := range [][]int{{0, 0}, {1}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("group %v should panic", bad)
					}
				}()
				NewGroup(r, bad)
			}()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectivesUnderRandomGroupOrder(t *testing.T) {
	// Group member order is arbitrary; collectives must still work.
	rng := rand.New(rand.NewSource(11))
	n := 9
	ids := rng.Perm(n)
	m := machine.New(n)
	err := m.Run(func(r *machine.Rank) error {
		g := groupOf(r, ids)
		var data []float64
		if g.Index() == 4 {
			data = []float64{7}
		}
		if got := g.Bcast(4, data, 2); got[0] != 7 {
			t.Errorf("rank %d got %v", r.ID(), got)
		}
		sum := g.Reduce(1, []float64{1}, 3)
		if g.Index() == 1 && sum[0] != float64(n) {
			t.Errorf("reduce got %v", sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReduceChainProperty runs the reduction over group sizes 1–9, every
// root, a shuffled member order and lengths on both sides of a segment
// cut, on the counting and the timed transport. The total must be
// bitwise the left fold down the chain — positions root+n−1, …, root+1,
// root (mod n) — whatever the grain cut it into; inputs stay untouched,
// non-roots get nil, the tail receives nothing and every other member
// each word exactly once.
func TestReduceChainProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	machines := map[string]func(int) *machine.Machine{
		"counting": machine.New,
		"timed":    func(p int) *machine.Machine { return machine.NewTimed(p, machine.PizDaintNet()) },
	}
	for n := 1; n <= 9; n++ {
		// A length that is cut (the optimum grain at 4L/(n−2) words is half
		// of it at most) fixes the grain the others straddle.
		_, grain := ReduceSegments(n, 4*reduceLatencyWords/max(n-2, 1))
		if n < 3 {
			grain = 1 << 10
		}
		ids := rng.Perm(n)
		for _, w := range []int{0, 1, grain - 1, grain, grain + 1, 3*grain + 7} {
			// Seeded values no float64 represents exactly, so every
			// association of the sum rounds differently.
			in := make([][]float64, n)
			for i := range in {
				in[i] = make([]float64, w)
				for j := range in[i] {
					in[i][j] = rng.NormFloat64() / 3
				}
			}
			segs, _ := ReduceSegments(n, w)
			if n == 2 && w > 0 && segs != 1 {
				t.Fatalf("w=%d: a chain of two cuts %d segments, want one message", w, segs)
			}
			for root := 0; root < n; root++ {
				want := append([]float64(nil), in[(root+n-1)%n]...)
				for pos := n - 2; pos >= 0; pos-- {
					for j, v := range in[(root+pos)%n] {
						want[j] += v
					}
				}
				for name, newMachine := range machines {
					m := newMachine(n)
					err := m.Run(func(r *machine.Rank) error {
						g := groupOf(r, ids)
						data := append([]float64(nil), in[g.Index()]...)
						got := g.Reduce(root, data, 7)
						for j, v := range data {
							if v != in[g.Index()][j] {
								t.Errorf("%s n=%d root=%d w=%d: member %d's input modified at %d", name, n, root, w, g.Index(), j)
								break
							}
						}
						if g.Index() != root {
							if got != nil {
								t.Errorf("%s n=%d root=%d w=%d: non-root got %d words", name, n, root, w, len(got))
							}
							return nil
						}
						if len(got) != w {
							t.Errorf("%s n=%d root=%d w=%d: total has %d words", name, n, root, w, len(got))
							return nil
						}
						for j, v := range got {
							if v != want[j] {
								t.Errorf("%s n=%d root=%d w=%d: word %d = %v, left fold %v", name, n, root, w, j, v, want[j])
								break
							}
						}
						return nil
					})
					if err != nil {
						t.Fatalf("%s n=%d root=%d w=%d: %v", name, n, root, w, err)
					}
					for i, id := range ids {
						c := m.Counters(id)
						wantRecv, wantMsgs := int64(w), int64(segs)
						if i == (root+n-1)%n || n == 1 {
							wantRecv, wantMsgs = 0, 0
						}
						if c.RecvWords != wantRecv || c.RecvMsgs != wantMsgs {
							t.Fatalf("%s n=%d root=%d w=%d: chain position %d received %d words in %d messages, want %d in %d",
								name, n, root, w, (i-root+n)%n, c.RecvWords, c.RecvMsgs, wantRecv, wantMsgs)
						}
					}
				}
			}
		}
	}
}

// TestReduceChainPipelinesTimed is the pipelining guard on the benchmark's
// two fiber shapes: with c segments on a chain of n, the root holds the
// total within (1 + (n−2)/c)·β·w + (n−2+c)·2α on pizdaint — one tile's
// transfer plus a segment per relaying member — where unsegmented hops
// would cost (n−1)·β·w.
func TestReduceChainPipelinesTimed(t *testing.T) {
	net := machine.PizDaintNet()
	for _, c := range []struct{ n, w int }{{4, 262144}, {15, 16384}} {
		ids := make([]int, c.n)
		for i := range ids {
			ids[i] = i
		}
		data := make([]float64, c.w)
		m := machine.NewTimed(c.n, net)
		err := m.Run(func(r *machine.Rank) error {
			machine.Release(groupOf(r, ids).Reduce(0, data, 3))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		segs, _ := ReduceSegments(c.n, c.w)
		if segs < 2 {
			t.Fatalf("n=%d w=%d: %d segments, nothing to pipeline", c.n, c.w, segs)
		}
		relays, s := float64(c.n-2), float64(segs)
		limit := (1+relays/s)*net.Beta*float64(c.w) + (relays+s)*2*net.Alpha
		if got := m.MaxTime(); got > limit {
			t.Errorf("n=%d w=%d: %d segments took %.4g s, want ≤ %.4g (serial hops: %.4g)",
				c.n, c.w, segs, got, limit, float64(c.n-1)*net.Beta*float64(c.w))
		}
	}
}
