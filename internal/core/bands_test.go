package core_test

import (
	"math"
	"math/bits"
	"sort"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/baselines"
	"cosma/internal/layout"
	"cosma/internal/machine"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

var presets = []machine.NetworkParams{machine.PizDaintNet(), machine.CommodityEthernet(), machine.SharedMemory()}

// rule is the band count restated from a published plan compiled on
// net: ⌊√((d−1)·β·dm·h / (4α))⌋ clamped to [1, ⌊m/Pm⌋] for a
// synchronous plan on a network whose A tree is d = ⌊log₂ Pn⌋ ≥ 2 deep,
// else 1. h is the longest round: a slab's A and B parts cut it into
// pieces, and the step caps them.
func rule(pl *algo.Plan, net *machine.NetworkParams) int {
	d := pl.Geometry
	depth := bits.Len(uint(d.GridPn)) - 1
	if net == nil || pl.Overlap || depth < 2 {
		return 1
	}
	h := 0
	for ik := 0; ik < d.GridPk; ik++ {
		slab := layout.Block(pl.K, d.GridPk, ik).Len()
		var cuts []int
		for _, parts := range []int{d.GridPn, d.GridPm} {
			for _, r := range layout.Split(slab, parts) {
				cuts = append(cuts, r.Hi)
			}
		}
		sort.Ints(cuts)
		prev := 0
		for _, cut := range cuts {
			h = max(h, min(cut-prev, d.StepSize))
			prev = cut
		}
	}
	c := math.Floor(math.Sqrt(float64(depth-1) * net.Beta * float64(d.DomainM*h) / (4 * net.Alpha)))
	return int(max(1, min(c, float64(pl.M/d.GridPm))))
}

// compile is policy i's plan of a cell under cfg; ok is false where the
// policy refuses the shape.
func compile(t *testing.T, i int, cfg algo.Config, c cell) (*algo.Plan, bool) {
	t.Helper()
	spec, err := baselines.Lookup(policies[i].name)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := spec.Plan(cfg, c.m, c.n, c.k, c.p, c.s)
	return pl, err == nil
}

// TestBandsOnlyWhereTheyPay: a plan broadcasts its A panels in row
// blocks only where the rule says — never without a network, under
// overlap or on an A tree shallower than two levels; three of them on
// the benchmark's square-tight on pizdaint, none on ethernet, where α
// is twenty times dearer. On the serve-mix catalog (p = 4, 9, 16, 27,
// 64), for every grid policy, every preset and no network, with and
// without overlap, the published count is the rule's.
func TestBandsOnlyWhereTheyPay(t *testing.T) {
	pizdaint, ethernet := machine.PizDaintNet(), machine.CommodityEthernet()
	tight := cell{1024, 1024, 1024, 16, 69632}
	roomy := cell{1024, 1024, 1024, 16, 1 << 20}
	for _, c := range []struct {
		name   string
		policy int
		cfg    algo.Config
		cell   cell
		want   int
	}{
		{"tight, no network", 0, algo.Config{Overlap: true}, tight, 1},
		{"tight on pizdaint", 0, algo.Config{Overlap: true, Network: &pizdaint}, tight, 3},
		{"tight on ethernet", 0, algo.Config{Overlap: true, Network: &ethernet}, tight, 1},
		{"SUMMA's [4×4×1] overlapped", 1, algo.Config{Overlap: true, Network: &pizdaint}, roomy, 1},
		{"SUMMA's [4×4×1] synchronous", 1, algo.Config{Network: &pizdaint}, roomy, 17},
		{"COSMA's [2×2×4] synchronous: Pn < 4", 0, algo.Config{Network: &pizdaint}, roomy, 1},
	} {
		pl, ok := compile(t, c.policy, c.cfg, c.cell)
		if !ok {
			t.Fatalf("%s: not planned", c.name)
		}
		if got := pl.Geometry.Bands; got != c.want {
			t.Errorf("%s: grid %s overlap %v, %d bands, want %d", c.name, pl.Grid, pl.Overlap, got, c.want)
		}
	}

	nets := []*machine.NetworkParams{nil}
	for i := range presets {
		nets = append(nets, &presets[i])
	}
	banded := 0
	for _, c := range catalogCells(4, 9, 16, 27, 64) {
		for i := range policies {
			for _, net := range nets {
				for _, overlap := range []bool{false, true} {
					pl, ok := compile(t, i, algo.Config{Overlap: overlap, Network: net}, c)
					if !ok {
						continue
					}
					if got, want := pl.Geometry.Bands, rule(pl, net); got != want {
						t.Errorf("%s %+v grid %s overlap %v net %v: %d bands, the rule says %d", pl.Name, c, pl.Grid, pl.Overlap, net, got, want)
					}
					if pl.Geometry.Bands > 1 {
						banded++
					}
				}
			}
		}
	}
	if banded == 0 {
		t.Fatal("no catalog plan is banded: the rule is checked only where it says 1")
	}
}
