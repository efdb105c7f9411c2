package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/core"
	"cosma/internal/grid"
	"cosma/internal/layout"
	"cosma/internal/machine"
	"cosma/internal/matrix"
	"cosma/internal/workload"
)

// policies are the three grid policies on core's plan, with whether
// each starts its inputs on layer 0 (2.5D).
var policies = []struct {
	name   string
	layer0 bool
}{{"cosma", false}, {"summa", false}, {"2.5d", true}}

type cell struct{ m, n, k, p, s int }

// catalogCells are the serve-mix catalog's twelve shapes on each p of
// ps, each with S = w/p, 3w/p and 3w for w = mn + mk + nk.
func catalogCells(ps ...int) []cell {
	var cells []cell
	cat := workload.NewGenerator(workload.GenConfig{Seed: 1, Shapes: 12, ZipfS: 1.1, MinDim: 32, MaxDim: 192}).Catalog()
	for _, d := range cat {
		words := d.M*d.N + d.M*d.K + d.N*d.K
		for _, p := range ps {
			cells = append(cells, cell{d.M, d.N, d.K, p, words / p}, cell{d.M, d.N, d.K, p, 3 * words / p}, cell{d.M, d.N, d.K, p, 3 * words})
		}
	}
	return cells
}

// gate is the stagger's rule restated: a pipelined plan on a square
// grid of more than one rank a side whose k slabs all split evenly.
func gate(pl *algo.Plan) bool {
	d := pl.Geometry
	if !pl.Overlap || d.GridPm != d.GridPn || d.GridPn < 2 {
		return false
	}
	for ik := 0; ik < d.GridPk; ik++ {
		if layout.Block(pl.K, d.GridPk, ik).Len()%d.GridPn != 0 {
			return false
		}
	}
	return true
}

// run is one execution on a timed machine: the product, the report and
// every rank's counters.
type run struct {
	c     *matrix.Dense
	rep   *algo.Report
	count []machine.Counters
}

func execute(t *testing.T, pl *algo.Plan, net machine.NetworkParams, a, b *matrix.Dense) run {
	t.Helper()
	mach := machine.NewTimed(pl.P, net)
	ex, err := algo.NewExecutor(pl, algo.ExecOptions{Machine: mach})
	if err != nil {
		t.Fatal(err)
	}
	c, rep, err := ex.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatalf("%s: %v", pl.Name, err)
	}
	count := make([]machine.Counters, pl.P)
	for id := range count {
		count[id] = mach.Counters(id)
	}
	return run{c, rep, count}
}

var (
	sweepOnce sync.Once
	findings  map[string][]string // the twin sweep's failures, by the test that reports them
)

// reportTwins runs the twin sweep once and fails the calling test with
// its share of the findings. A failure to run the sweep at all stops the
// test that ran it first, and the others find no findings map.
func reportTwins(t *testing.T) {
	sweepOnce.Do(func() { findings = runTwins(t) })
	if findings == nil {
		t.Fatal("the twin sweep stopped early: see the first test that ran it")
	}
	for _, f := range findings[t.Name()] {
		t.Error(f)
	}
}

// runTwins is the one sweep: the stagger changes which rank holds which
// piece and the bands when A's words arrive, never which words move or
// what is multiplied. On the serve-mix catalog (p = 4, 9, 16, 27, 64),
// SUMMA's pinned [3×4×1], TestOneGridOneSchedule's [4×4×1], square-tight
// at half its edge and the benchmark's three engine shapes, the three
// grid policies compile on each preset with and without overlap; every
// plan that staggers or bands (never both) runs next to its twin with
// neither (core.Twin). -short and -race skip p = 27 and 64 and the 512³
// cell; -short also skips the benchmark's shapes.
func runTwins(t *testing.T) map[string][]string {
	ps := []int{4, 9, 16, 27, 64}
	cells := []cell{{300, 200, 100, 12, 20000}, {256, 256, 256, 16, 6000}}
	if testing.Short() || raceEnabled {
		ps = ps[:3]
	} else {
		cells = append(cells, cell{512, 512, 512, 16, 128*128 + 8*256})
	}
	if !testing.Short() { // square-roomy, square-tight and tall-k
		cells = append(cells, cell{1024, 1024, 1024, 16, 1 << 20}, cell{1024, 1024, 1024, 16, 69632}, cell{128, 128, 65536, 16, 1 << 18})
	}
	cells = append(cells, catalogCells(ps...)...)
	found := map[string][]string{}
	add := func(test, format string, args ...any) {
		found[test] = append(found[test], fmt.Sprintf(format, args...))
	}
	// checked counts the plans run against their twin by feature, faster
	// those with a shorter critical path by feature and "feature preset".
	checked, faster := map[string]int{}, map[string]int{}
	rng := rand.New(rand.NewSource(35))
	for _, c := range cells {
		a, b := matrix.Random(c.m, c.k, rng), matrix.Random(c.k, c.n, rng)
		for pi := range presets {
			net := &presets[pi]
			for i := range policies {
				for _, overlap := range []bool{false, true} {
					cfg := algo.Config{Overlap: overlap, Network: net}
					on, ok := compile(t, i, cfg, c)
					if !ok || overlap && !on.Overlap { // no room: the synchronous plan again
						continue
					}
					g := grid.Grid{Pm: on.Geometry.GridPm, Pn: on.Geometry.GridPn, Pk: on.Geometry.GridPk}
					off, staggered, bands, err := core.Twin(on.Name, cfg, g, c.m, c.n, c.k, c.p, c.s, policies[i].layer0)
					if err != nil || bands != on.Geometry.Bands {
						t.Fatalf("%s %+v: twin: %d bands, %v", on.Name, c, bands, err)
					}
					if want := gate(on); staggered != want {
						add("TestStaggerMovesNoWordOrBit", "%s %+v grid %s overlap %v: staggered %v, the rule says %v", on.Name, c, on.Grid, on.Overlap, staggered, want)
					}
					feature, moves, slows := "stagger", "TestStaggerMovesNoWordOrBit", "TestStaggerNeverSlower"
					switch {
					case bands > 1:
						feature, moves, slows = "bands", "TestBandsNeverSlower", "TestBandsNeverSlower"
					case !staggered:
						continue
					}
					checked[feature]++
					x, y := execute(t, on, *net, a, b), execute(t, off, *net, a, b)
					where := fmt.Sprintf("%s %s %+v grid %s, %s", net.Name, on.Name, c, on.Grid, feature)
					if x.rep.CritPathTime > y.rep.CritPathTime {
						add(slows, "%s: critical path %.6g s, %.6g s without", where, x.rep.CritPathTime, y.rep.CritPathTime)
					}
					if x.rep.CritPathTime < y.rep.CritPathTime {
						faster[feature]++
						faster[feature+" "+net.Name]++
					}
					if staggered && on.Model != off.Model {
						add(moves, "%s: model %+v, %+v without", where, on.Model, off.Model)
					}
					for id := range x.count {
						cx, cy := x.count[id], y.count[id]
						if staggered && cx != cy || cx.SentWords != cy.SentWords || cx.RecvWords != cy.RecvWords || cx.Flops != cy.Flops {
							add(moves, "%s rank %d: counters %+v, %+v without", where, id, cx, cy)
						}
					}
					for w := range x.c.Data {
						if x.c.Data[w] != y.c.Data[w] {
							add(moves, "%s: element %d differs bitwise: %v, %v without", where, w, x.c.Data[w], y.c.Data[w])
							break
						}
					}
					if rep := x.rep; rep.AvgRecv != rep.Model.AvgRecv || float64(rep.MaxRecv) != rep.Model.MaxRecv || float64(rep.MaxMsgs) != rep.Model.MaxMsgs {
						add(moves, "%s: measured avg %v max %d msgs %d, model %v %v %v", where,
							rep.AvgRecv, rep.MaxRecv, rep.MaxMsgs, rep.Model.AvgRecv, rep.Model.MaxRecv, rep.Model.MaxMsgs)
					}
				}
			}
		}
	}
	t.Logf("twin sweep: checked %v, faster %v", checked, faster)
	if checked["stagger"] == 0 {
		add("TestStaggerMovesNoWordOrBit", "no plan staggered: the test checks nothing")
	}
	for _, net := range presets {
		if faster["stagger "+net.Name] == 0 {
			add("TestStaggerNeverSlower", "%s: the stagger shortened no critical path", net.Name)
		}
	}
	if faster["bands"] == 0 {
		add("TestBandsNeverSlower", "banding shortened no critical path")
	}
	return found
}

// TestStaggerMovesNoWordOrBit: across the sweep the stagger is granted
// exactly where its rule says, and every staggered plan has its twin's
// product bits, model and per-rank counters, and the model's counts
// measured.
func TestStaggerMovesNoWordOrBit(t *testing.T) { reportTwins(t) }

// TestStaggerNeverSlower: every staggered plan of the sweep has a
// critical path at most its twin's, and below it somewhere on each
// preset.
func TestStaggerNeverSlower(t *testing.T) { reportTwins(t) }

// TestBandsNeverSlower: every banded plan of the sweep has its twin's
// product bits and per-rank words sent, received and multiplied, the
// model's counts measured, and a critical path at most its twin's —
// below it somewhere.
func TestBandsNeverSlower(t *testing.T) { reportTwins(t) }
