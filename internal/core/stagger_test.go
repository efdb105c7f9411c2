package core_test

import (
	"context"
	"math/rand"
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
// ps, each with S = 3(mn + mk + nk)/p and 3(mn + mk + nk).
func catalogCells(ps ...int) []cell {
	var cells []cell
	cat := workload.NewGenerator(workload.GenConfig{Seed: 1, Shapes: 12, ZipfS: 1.1, MinDim: 32, MaxDim: 192}).Catalog()
	for _, d := range cat {
		words := d.M*d.N + d.M*d.K + d.N*d.K
		for _, p := range ps {
			cells = append(cells, cell{d.M, d.N, d.K, p, 3 * words / p}, cell{d.M, d.N, d.K, p, 3 * words})
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

// pair is a policy's plan of one cell with overlap requested, as the
// engine runs it, and the same plan with the stagger off.
type pair struct {
	on, off   *algo.Plan
	staggered bool
}

// plans returns the cell's pair under policy i; ok is false where the
// policy refuses the shape.
func plans(t *testing.T, i int, c cell) (pr pair, ok bool) {
	t.Helper()
	on, ok := compile(t, i, algo.Config{Overlap: true}, c)
	if !ok {
		return pair{}, false
	}
	d := on.Geometry
	g := grid.Grid{Pm: d.GridPm, Pn: d.GridPn, Pk: d.GridPk}
	off, staggered, err := core.Unstaggered(on.Name, algo.Config{Overlap: true}, g, c.m, c.n, c.k, c.p, c.s, policies[i].layer0)
	if err != nil {
		t.Fatal(err)
	}
	return pair{on, off, staggered}, true
}

// TestStaggerMovesNoWordOrBit: the stagger changes which rank holds
// which piece, never what is multiplied or how much is sent. On the
// serve-mix catalog and the benchmark's three engine shapes, for the
// three grid policies with overlap requested, it is granted exactly
// where its rule says; and where it is, the model, the product and every
// rank's counters equal those of the same plan with the stagger off, and
// the model equals the measurement.
func TestStaggerMovesNoWordOrBit(t *testing.T) {
	cells := catalogCells(4, 9, 16)
	if !testing.Short() { // square-roomy, square-tight and tall-k
		cells = append(cells, cell{1024, 1024, 1024, 16, 1 << 20}, cell{1024, 1024, 1024, 16, 69632}, cell{128, 128, 65536, 16, 1 << 18})
	}
	net := machine.PizDaintNet()
	rng := rand.New(rand.NewSource(34))
	granted := 0
	for _, c := range cells {
		a, b := matrix.Random(c.m, c.k, rng), matrix.Random(c.k, c.n, rng)
		for i := range policies {
			pr, ok := plans(t, i, c)
			if !ok {
				continue
			}
			if want := gate(pr.on); pr.staggered != want {
				t.Errorf("%s %+v grid %s overlap %v: staggered %v, the rule says %v", pr.on.Name, c, pr.on.Grid, pr.on.Overlap, pr.staggered, want)
			}
			if !pr.staggered {
				continue
			}
			granted++
			if pr.on.Model != pr.off.Model {
				t.Errorf("%s %+v: model %+v staggered, %+v not", pr.on.Name, c, pr.on.Model, pr.off.Model)
			}
			on, off := execute(t, pr.on, net, a, b), execute(t, pr.off, net, a, b)
			for id := range on.count {
				if on.count[id] != off.count[id] {
					t.Errorf("%s %+v rank %d: counters %+v staggered, %+v not", pr.on.Name, c, id, on.count[id], off.count[id])
				}
			}
			for w := range on.c.Data {
				if on.c.Data[w] != off.c.Data[w] {
					t.Fatalf("%s %+v: element %d differs bitwise: %v staggered, %v not", pr.on.Name, c, w, on.c.Data[w], off.c.Data[w])
				}
			}
			if rep := on.rep; rep.AvgRecv != rep.Model.AvgRecv || float64(rep.MaxRecv) != rep.Model.MaxRecv || float64(rep.MaxMsgs) != rep.Model.MaxMsgs {
				t.Errorf("%s %+v: measured avg %v max %d msgs %d, model %v %v %v", pr.on.Name, c,
					rep.AvgRecv, rep.MaxRecv, rep.MaxMsgs, rep.Model.AvgRecv, rep.Model.MaxRecv, rep.Model.MaxMsgs)
			}
		}
	}
	if granted == 0 {
		t.Fatal("no cell staggered: the test checks nothing")
	}
}

// TestStaggerNeverSlower: on every catalog cell of every grid policy,
// on both the pizdaint and the ethernet preset, the staggered critical
// path is at most the unstaggered one's — and below it somewhere.
func TestStaggerNeverSlower(t *testing.T) {
	for _, net := range []machine.NetworkParams{machine.PizDaintNet(), machine.CommodityEthernet()} {
		faster := 0
		for _, c := range catalogCells(4, 9, 16) {
			a, b := matrix.New(c.m, c.k), matrix.New(c.k, c.n)
			for i := range policies {
				pr, ok := plans(t, i, c)
				if !ok || !pr.staggered {
					continue
				}
				on, off := execute(t, pr.on, net, a, b).rep.CritPathTime, execute(t, pr.off, net, a, b).rep.CritPathTime
				if on > off {
					t.Errorf("%s %s %+v grid %s: critical path %.6g s staggered, %.6g s not", net.Name, pr.on.Name, c, pr.on.Grid, on, off)
				}
				if on < off {
					faster++
				}
			}
		}
		if faster == 0 {
			t.Errorf("%s: the stagger shortened no critical path", net.Name)
		}
	}
}
