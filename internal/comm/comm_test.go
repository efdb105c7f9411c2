package comm

import (
	"math"
	"math/rand"
	"testing"

	"cosma/internal/layout"
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
				defer machine.Release(got)
				pos := (g.Index() - root + n) % n
				want := []float64{float64(n*(n-1)) / 2, float64(n)}
				share := layout.Block(len(want), n, pos)
				if len(got) != share.Len() {
					t.Errorf("n=%d root=%d: position %d got %v", n, root, pos, got)
					return nil
				}
				for j, v := range got {
					if v != want[share.Lo+j] {
						t.Errorf("n=%d root=%d: position %d got %v", n, root, pos, got)
					}
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
		// One word over nine members: Block(1, n, ·) is empty but for the
		// last position, root+n−1.
		sum := g.Reduce(1, []float64{1}, 3)
		defer machine.Release(sum)
		if g.Index() == 0 && (len(sum) != 1 || sum[0] != float64(n)) {
			t.Errorf("reduce got %v", sum)
		}
		if g.Index() != 0 && sum != nil {
			t.Errorf("position %d got %v, want an empty share", (g.Index()-1+n)%n, sum)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestReduceShareProperty runs the reduction over group sizes 1–9, every
// root, a shuffled member order and lengths around a multiple of n, on
// the counting and the timed transport. The member at position pos must
// hold bitwise words Block(w, n, pos) of the left fold down positions
// root+n−1, …, root+1, root (mod n); inputs stay untouched, and every
// member receives its block from each of the others — (n−1)·|block|
// words in n−1 messages, nothing for an empty block.
func TestReduceShareProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	machines := map[string]func(int) *machine.Machine{
		"counting": machine.New,
		"timed":    func(p int) *machine.Machine { return machine.NewTimed(p, machine.PizDaintNet()) },
	}
	for n := 1; n <= 9; n++ {
		ids := rng.Perm(n)
		for _, w := range []int{0, 1, n - 1, n, n + 1, 37*n + 5} {
			// Seeded values no float64 represents exactly, so every
			// association of the sum rounds differently.
			in := make([][]float64, n)
			for i := range in {
				in[i] = make([]float64, w)
				for j := range in[i] {
					in[i][j] = rng.NormFloat64() / 3
				}
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
						defer machine.Release(got)
						for j, v := range data {
							if v != in[g.Index()][j] {
								t.Errorf("%s n=%d root=%d w=%d: member %d's input modified at %d", name, n, root, w, g.Index(), j)
								break
							}
						}
						pos := (g.Index() - root + n) % n
						share := layout.Block(w, n, pos)
						if len(got) != share.Len() {
							t.Errorf("%s n=%d root=%d w=%d: position %d holds %d words, want %d", name, n, root, w, pos, len(got), share.Len())
							return nil
						}
						for j, v := range got {
							if v != want[share.Lo+j] {
								t.Errorf("%s n=%d root=%d w=%d: word %d = %v, left fold %v", name, n, root, w, share.Lo+j, v, want[share.Lo+j])
								break
							}
						}
						return nil
					})
					if err != nil {
						t.Fatalf("%s n=%d root=%d w=%d: %v", name, n, root, w, err)
					}
					for i, id := range ids {
						pos := (i - root + n) % n
						block := int64(layout.Block(w, n, pos).Len())
						wantRecv, wantMsgs := int64(n-1)*block, int64(n-1)
						if block == 0 {
							wantMsgs = 0
						}
						if c := m.Counters(id); c.RecvWords != wantRecv || c.RecvMsgs != wantMsgs {
							t.Fatalf("%s n=%d root=%d w=%d: position %d received %d words in %d messages, want %d in %d",
								name, n, root, w, pos, c.RecvWords, c.RecvMsgs, wantRecv, wantMsgs)
						}
					}
				}
			}
		}
	}
}

// TestReduceClosedFormTimed pins the event clock on the benchmark's two
// fiber shapes: members that enter together post n−1 sends (α each) and
// then take n−1 blocks (β·⌈w/n⌉ each) that have all departed by then, so
// the slowest finishes at (n−1)·(α + β·⌈w/n⌉) on pizdaint.
func TestReduceClosedFormTimed(t *testing.T) {
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
		block := (c.w + c.n - 1) / c.n
		want := float64(c.n-1) * (net.Alpha + net.Beta*float64(block))
		if got := m.MaxTime(); math.Abs(got-want) > 1e-12*want {
			t.Errorf("n=%d w=%d: finished at %.17g s, want %.17g", c.n, c.w, got, want)
		}
	}
}
