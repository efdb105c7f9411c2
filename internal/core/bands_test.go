package core_test

import (
	"math"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/baselines"
	"cosma/internal/core"
	"cosma/internal/grid"
	"cosma/internal/layout"
	"cosma/internal/machine"
	"cosma/internal/matrix"
	"cosma/internal/workload"
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

// TestBandsNeverSlower: sending a round's A panel in row blocks changes
// when words arrive, never which words or what is multiplied. On the
// serve-mix catalog (p = 4, 9, 16, 27, 64; S = (mn+mk+nk)/p, three
// times that and 3(mn+mk+nk)), for the three grid policies compiled on each preset with
// and without overlap requested, every banded plan's critical path is at
// most that of the same plan with every panel sent whole — and below it
// somewhere — with the same product bits, the same words sent, received
// and multiplied on every rank, and the model's counts measured. The
// p = 27 and 64 cells and the 512³ one are skipped under -short and
// -race.
func TestBandsNeverSlower(t *testing.T) {
	ps := []int{4, 9, 16, 27, 64}
	if testing.Short() || raceEnabled {
		ps = ps[:3]
	}
	// SUMMA's pinned [3×4×1], TestOneGridOneSchedule's [4×4×1] and
	// square-tight at half its edge join the catalog, whose tiles are too
	// small for more than a few bands.
	cells := []cell{{300, 200, 100, 12, 20000}, {256, 256, 256, 16, 6000}}
	if !testing.Short() && !raceEnabled {
		cells = append(cells, cell{512, 512, 512, 16, 128*128 + 8*256})
	}
	for _, d := range workload.NewGenerator(workload.GenConfig{Seed: 1, Shapes: 12, ZipfS: 1.1, MinDim: 32, MaxDim: 192}).Catalog() {
		words := d.M*d.N + d.M*d.K + d.N*d.K
		for _, p := range ps {
			cells = append(cells, cell{d.M, d.N, d.K, p, words / p}, cell{d.M, d.N, d.K, p, 3 * words / p}, cell{d.M, d.N, d.K, p, 3 * words})
		}
	}
	rng := rand.New(rand.NewSource(35))
	checked, faster := 0, 0
	for _, c := range cells {
		a, b := matrix.Random(c.m, c.k, rng), matrix.Random(c.k, c.n, rng)
		for pi := range presets {
			net := &presets[pi]
			for i := range policies {
				for _, overlap := range []bool{false, true} {
					cfg := algo.Config{Overlap: overlap, Network: net}
					on, ok := compile(t, i, cfg, c)
					if !ok || on.Geometry.Bands == 1 {
						continue
					}
					d := on.Geometry
					g := grid.Grid{Pm: d.GridPm, Pn: d.GridPn, Pk: d.GridPk}
					off, bands, err := core.Unbanded(on.Name, cfg, g, c.m, c.n, c.k, c.p, c.s, policies[i].layer0)
					if err != nil || bands != d.Bands {
						t.Fatalf("%s %+v: unbanded twin: %d bands, %v", on.Name, c, bands, err)
					}
					checked++
					x, y := execute(t, on, *net, a, b), execute(t, off, *net, a, b)
					if x.rep.CritPathTime > y.rep.CritPathTime {
						t.Errorf("%s %s %+v grid %s, %d bands: critical path %.6g s, %.6g s unbanded",
							net.Name, on.Name, c, on.Grid, bands, x.rep.CritPathTime, y.rep.CritPathTime)
					}
					if x.rep.CritPathTime < y.rep.CritPathTime {
						faster++
					}
					for id := range x.count {
						cx, cy := x.count[id], y.count[id]
						if cx.SentWords != cy.SentWords || cx.RecvWords != cy.RecvWords || cx.Flops != cy.Flops {
							t.Errorf("%s %s %+v rank %d: counters %+v banded, %+v not", net.Name, on.Name, c, id, cx, cy)
						}
					}
					for w := range x.c.Data {
						if x.c.Data[w] != y.c.Data[w] {
							t.Fatalf("%s %s %+v: element %d differs bitwise: %v banded, %v not", net.Name, on.Name, c, w, x.c.Data[w], y.c.Data[w])
						}
					}
					if rep := x.rep; rep.AvgRecv != rep.Model.AvgRecv || float64(rep.MaxRecv) != rep.Model.MaxRecv || float64(rep.MaxMsgs) != rep.Model.MaxMsgs {
						t.Errorf("%s %s %+v: measured avg %v max %d msgs %d, model %v %v %v", net.Name, on.Name, c,
							rep.AvgRecv, rep.MaxRecv, rep.MaxMsgs, rep.Model.AvgRecv, rep.Model.MaxRecv, rep.Model.MaxMsgs)
					}
				}
			}
		}
	}
	t.Logf("%d banded plans, %d faster than unbanded", checked, faster)
	if faster == 0 {
		t.Fatal("banding shortened no critical path")
	}
}
