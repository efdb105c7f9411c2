package machine

import (
	"testing"
)

func TestHierarchicalLinkCosts(t *testing.T) {
	intra := NetworkParams{Name: "in", Alpha: 1e-7, Beta: 1e-9}
	inter := NetworkParams{Name: "out", Alpha: 1e-5, Beta: 1e-7, Gamma: 1e-10}
	n := Hierarchical(intra, inter, 4, 2)
	if !n.Hier() {
		t.Fatal("Hier() must report true")
	}
	if n.NodeOf(3) != 0 || n.NodeOf(4) != 1 || n.NodeOf(11) != 2 {
		t.Fatalf("rank→node map wrong: %d %d %d", n.NodeOf(3), n.NodeOf(4), n.NodeOf(11))
	}
	// Ranks 0 and 3 share node 0; ranks 3 and 4 straddle the boundary.
	if got := n.LinkAlpha(0, 3); got != intra.Alpha {
		t.Fatalf("intra α = %v", got)
	}
	if got := n.LinkAlpha(3, 4); got != inter.Alpha {
		t.Fatalf("inter α = %v", got)
	}
	if got := n.LinkBeta(0, 3); got != intra.Beta {
		t.Fatalf("intra β = %v", got)
	}
	if got := n.LinkBeta(3, 4); got != inter.Beta*2 {
		t.Fatalf("inter β = %v, want congested %v", got, inter.Beta*2)
	}
	if n.Gamma != inter.Gamma {
		t.Fatal("γ must come from the inter profile")
	}
	// The analytic form prices at the congested inter level.
	if got, want := n.Time(0, 100, 1), inter.Beta*2*100+inter.Alpha; got != want {
		t.Fatalf("Time = %v, want %v", got, want)
	}
}

func TestHierarchicalFlatRanksUnaffected(t *testing.T) {
	// A flat network must answer the Link* queries with its own exact
	// field values, whatever the ranks.
	flat := testNet()
	if flat.Hier() || flat.NodeOf(7) != 0 {
		t.Fatal("flat network must not carry a hierarchy")
	}
	if flat.LinkAlpha(0, 5) != flat.Alpha || flat.LinkBeta(0, 5) != flat.Beta {
		t.Fatal("flat link costs must be the flat fields themselves")
	}
}

// hierProgram is a clock-sensitive mixed program: ring exchange,
// relayed send, posted receive, compute and zero-word rendezvous — every
// charge site of the clock fires at least once.
func hierProgram(r *Rank) error {
	p, id := r.P(), r.ID()
	next, prev := (id+1)%p, (id+p-1)%p
	r.Send(next, 1, make([]float64, 64))
	r.Recv(prev, 1)
	r.Compute(1 << 12)
	rendezvous(r, 4)
	if id == 0 {
		r.SendAt(p-1, 2, make([]float64, 32), r.Now())
	}
	if id == p-1 {
		r.Recv(0, 2)
	}
	req := r.IRecv(prev, 3)
	r.Send(next, 3, make([]float64, 16))
	r.Compute(1 << 10)
	req.Wait()
	rendezvous(r, 5)
	return nil
}

// The collapse guarantee: intra == inter with congestion 1 must yield
// clocks bitwise-identical to the flat network's on the same program.
func TestHierarchicalCollapsesBitwiseToFlat(t *testing.T) {
	flat := PizDaintNet()
	collapsed := Hierarchical(flat, flat, 2, 1)

	mFlat := NewTimed(8, flat)
	mHier := NewTimed(8, collapsed)
	if err := mFlat.Run(hierProgram); err != nil {
		t.Fatal(err)
	}
	if err := mHier.Run(hierProgram); err != nil {
		t.Fatal(err)
	}
	tf, th := mFlat.Times(), mHier.Times()
	for i := range tf {
		if tf[i] != th[i] {
			t.Fatalf("rank %d clock %v (flat) != %v (collapsed hierarchy)", i, tf[i], th[i])
		}
	}
	// The analytic predictions must collapse too.
	if flat.Time(1e9, 1e6, 1e3) != collapsed.Time(1e9, 1e6, 1e3) {
		t.Fatal("analytic Time must collapse bitwise")
	}
	if flat.TimeOverlap(1e9, 1e6, 1e3) != collapsed.TimeOverlap(1e9, 1e6, 1e3) {
		t.Fatal("analytic TimeOverlap must collapse bitwise")
	}
}

// A genuinely slower inter-node level must lengthen the critical path,
// and congestion must lengthen it further.
func TestHierarchicalInterNodeCostRaisesCritPath(t *testing.T) {
	intra := SharedMemory()
	inter := CommodityEthernet()

	run := func(net NetworkParams) float64 {
		m := NewTimed(8, net)
		if err := m.Run(hierProgram); err != nil {
			t.Fatal(err)
		}
		return m.MaxTime()
	}
	flat := run(intra)
	hier := run(Hierarchical(intra, inter, 4, 1))
	congested := run(Hierarchical(intra, inter, 4, 4))
	if hier <= flat {
		t.Fatalf("ethernet inter-node level must cost more: %v vs flat %v", hier, flat)
	}
	if congested <= hier {
		t.Fatalf("congestion must cost more: %v vs uncongested %v", congested, hier)
	}
}
