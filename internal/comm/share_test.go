package comm

import (
	"math"
	"slices"
	"testing"

	"cosma/internal/machine"
)

// packedPanel is a packed panel as an owner shares it: a buffer
// loaned from the pool, longer than the words it carries.
func packedPanel(padded int) []float64 {
	buf := machine.Loan(padded)
	for i := range buf {
		buf[i] = float64(i + 1)
	}
	return buf
}

// TestPostShareAllSizesAllRoots: over TestBcastAllSizesAllRoots' group
// sizes and every root, a by-reference broadcast of a packed panel
// (4 logical words in a 6-word buffer) hands every member the owner's
// buffer itself, bit for bit; each rank's counters — and on the timed
// machine its clock — equal those of the owning IBcast of 4 words; and
// once every member has dropped its hold the root's handle has given
// the buffer back to the pool and a further Drop of it panics. A group
// of one takes no handle: its member reads the owner's buffer and its
// Drop releases it (PostShare).
func TestPostShareAllSizesAllRoots(t *testing.T) {
	const words, padded, tag = 4, 6, 10
	for _, timed := range []bool{false, true} {
		newMachine := func(n int) *machine.Machine {
			if timed {
				return machine.NewTimed(n, machine.PizDaintNet())
			}
			return machine.New(n)
		}
		for _, n := range []int{1, 2, 3, 5, 8, 13} {
			ids := make([]int, n)
			for i := range ids {
				ids[i] = i
			}
			for root := 0; root < n; root++ {
				owning := newMachine(n)
				err := owning.Run(func(r *machine.Rank) error {
					g := NewGroup(r, ids)
					var data []float64
					if g.Index() == root {
						data = make([]float64, words)
					}
					g.IBcast(root, data, tag).Wait()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				owner := packedPanel(padded)
				want := slices.Clone(owner)
				var sh *machine.Shared // the root's handle
				shared := newMachine(n)
				err = shared.Run(func(r *machine.Rank) error {
					g := NewGroup(r, ids)
					var data []float64
					if g.Index() == root {
						data = owner
					}
					var p Pending
					g.PostShare(&p, root, data, words, tag)
					got := p.Wait()
					if &got[0] != &owner[0] || !slices.Equal(got, want) {
						t.Errorf("timed %v n=%d root=%d rank %d: got %v, not the owner's buffer %v", timed, n, root, r.ID(), got, want)
					}
					if g.Index() == root {
						sh = p.sh
					}
					p.Drop()
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for id := 0; id < n; id++ {
					if got, want := shared.Counters(id), owning.Counters(id); got != want {
						t.Errorf("timed %v n=%d root=%d rank %d: counters %+v, owning broadcast %+v", timed, n, root, id, got, want)
					}
				}
				if got, want := shared.Times(), owning.Times(); !slices.Equal(got, want) {
					t.Errorf("timed %v n=%d root=%d: clocks %v, owning broadcast %v", timed, n, root, got, want)
				}
				if n == 1 {
					if sh != nil {
						t.Errorf("timed %v: a group of one took a handle", timed)
					}
					continue
				}
				if sh.Data() != nil {
					t.Errorf("timed %v n=%d root=%d: the buffer outlived every member's hold", timed, n, root)
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("n=%d root=%d: a Drop past the last hold did not panic", n, root)
						}
					}()
					sh.Drop()
				}()
			}
		}
	}
}

// TestPostShareCorruptLinkPerturbsOnlyItsSubtree: on a 7-member tree
// rooted at 0 (children 1 and 2; 1 relays to 3 and 4, 2 to 5 and 6), a
// Corrupt fault on the link 0 → 1 hands rank 1 a private perturbed copy,
// which it relays: ranks 1, 3 and 4 read it, ranks 2, 5 and 6 the
// owner's buffer, which stays unchanged. Both payloads are released
// once every member has dropped its hold.
func TestPostShareCorruptLinkPerturbsOnlyItsSubtree(t *testing.T) {
	const words, padded, tag, n = 4, 6, 3, 7
	m := machine.New(n)
	if err := m.SetFaultPlan(machine.FaultPlan{Links: []machine.LinkFault{{Src: 0, Dst: 1, Corrupt: true, Word: 1}}}); err != nil {
		t.Fatal(err)
	}
	owner := packedPanel(padded)
	want := slices.Clone(owner)
	ids := []int{0, 1, 2, 3, 4, 5, 6}
	handles := make([]*machine.Shared, n)
	reads := make([]*float64, n)
	err := m.Run(func(r *machine.Rank) error {
		g := NewGroup(r, ids)
		var data []float64
		if r.ID() == 0 {
			data = owner
		}
		var p Pending
		g.PostShare(&p, 0, data, words, tag)
		got := p.Wait()
		handles[r.ID()], reads[r.ID()] = p.sh, &got[0]
		perturbed := r.ID() == 1 || r.ID() == 3 || r.ID() == 4
		for i, v := range got {
			if changed := math.Float64bits(v) != math.Float64bits(want[i]); changed != (perturbed && i == 1) {
				t.Errorf("rank %d word %d: %v, owner's %v", r.ID(), i, v, want[i])
			}
		}
		if inPlace := &got[0] == &owner[0]; inPlace == perturbed {
			t.Errorf("rank %d reads the owner's buffer: %v", r.ID(), inPlace)
		}
		p.Drop()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(owner, want) {
		t.Errorf("owner's buffer changed: %v, want %v", owner, want)
	}
	if reads[3] != reads[1] || reads[4] != reads[1] || handles[3] != handles[1] || handles[4] != handles[1] {
		t.Error("ranks 3 and 4 do not share rank 1's private copy")
	}
	for _, c := range []*machine.Shared{handles[0], handles[1]} {
		if c.Data() != nil {
			t.Error("a payload outlived every member's hold")
		}
	}
}

// TestStreamShareRoundsAllocateNothing: on a warm 4-rank machine, a
// Stream of by-reference rounds over a 4-member group — two units a
// round, the next round in flight, every member rooting some — makes
// no more allocations in 32 rounds than in 8: the ring's Pendings, their
// receives and the recycled share handles are all reused. The payload
// has a capacity the pool does not take, so no pool miss adds noise.
func TestStreamShareRoundsAllocateNothing(t *testing.T) {
	const n, per = 4, 2
	m := machine.New(n)
	payload := make([]float64, 3)
	stream := func(rounds int) func() {
		return func() {
			err := m.Run(func(r *machine.Rank) error {
				g := NewGroup(r, []int{0, 1, 2, 3})
				return Stream(r, rounds, per, per, func(i, j int, p *Pending) {
					root := (i + j) % n
					g.PostShare(p, root, payload, len(payload), j)
				}, func(_ int, units []Pending) {
					for j := range units {
						units[j].Drop()
					}
				})
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	long := testing.AllocsPerRun(20, stream(32))
	short := testing.AllocsPerRun(20, stream(8))
	if long-short >= 1 {
		t.Errorf("32 rounds allocate %.2f objects per run, 8 rounds %.2f: want no more", long, short)
	}
}

// TestPendingDropTwicePanics: a second Drop of a by-reference broadcast
// panics on every member — the root, a relay, a leaf, and the one
// member of a group of one — even once the last Drop has sent the
// payload's handle back for reuse, where the handle's own guard no
// longer holds.
func TestPendingDropTwicePanics(t *testing.T) {
	for _, n := range []int{1, 4} { // 4: 0 roots 1 and 2, 1 relays to 3
		m := machine.New(n)
		ids := []int{0, 1, 2, 3}[:n]
		err := m.Run(func(r *machine.Rank) error {
			g := NewGroup(r, ids)
			var p Pending
			g.PostShare(&p, 0, machine.Loan(4), 4, 1)
			p.Drop()
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d rank %d: a second Drop did not panic", n, r.ID())
				}
			}()
			p.Drop()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
