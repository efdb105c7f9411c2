package core_test

import (
	"fmt"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/matrix"
)

// slower lists the (preset, m×n×k) cells where some pipelined plan is
// slower than the synchronous plan of the same arguments, by up to this
// many percent. All are [4×4×1] grids but SUMMA's 300×200×100 on
// [3×4×1]. The overlap gate grants a second panel pair wherever it fits,
// not where it pays; a lookahead rule derived from the critical path
// empties this list.
var slower = map[string]float64{
	"pizdaint 300×200×100": 4.95, "pizdaint 118×118×118": 7.16, "pizdaint 43×43×43": 5.05,
	"ethernet 118×118×118": 4.31, "ethernet 38×38×190": 2.96, "ethernet 174×47×47": 1.30,
	"ethernet 136×136×63": 2.61, "ethernet 43×43×43": 0.76, "ethernet 35×35×125": 1.79,
	"ethernet 102×102×43": 1.55, "ethernet 101×101×101": 3.28, "ethernet 42×42×162": 2.76,
	"ethernet 96×37×37": 0.73, "ethernet 122×122×43": 1.75,
	"sharedmem 43×43×43": 7.40, "sharedmem 35×35×125": 8.74, "sharedmem 42×42×162": 0.28,
	"sharedmem 96×37×37": 4.45,
}

// TestPipelinedNeverSlowerThanSynchronous: on the serve-mix catalog at
// p = 4, 9 and 16 (S = w/p, 3w/p and 3w), SUMMA's pinned [3×4×1] and
// 256³ on p = 16 with room for two panel pairs of four rounds, for
// COSMA's fitted grid and SUMMA's
// near-square Pk = 1 grid on each preset, every plan that pipelines has
// a critical path at most that of the synchronous plan compiled from
// the same arguments — except on the cells listed in slower, and there
// by no more than listed — and each report records the mode that ran.
// The two hand-listed cells are here for their pipelined run: each must
// pipeline for both policies on every preset. A catalog cell whose plan
// does not is skipped.
func TestPipelinedNeverSlowerThanSynchronous(t *testing.T) {
	listed := []cell{{300, 200, 100, 12, 20000}, {256, 256, 256, 16, 32768}}
	cells := append(listed, catalogCells(4, 9, 16)...)
	compared := 0
	for ci, c := range cells {
		a, b := matrix.New(c.m, c.k), matrix.New(c.k, c.n)
		for pi := range presets {
			net := &presets[pi]
			for i := range policies[:2] { // cosma, summa
				pipe, ok := compile(t, i, algo.Config{Overlap: true, Network: net}, c)
				if !ok || !pipe.Overlap {
					if ci < len(listed) {
						t.Errorf("%s %s %+v: a hand-listed cell's plan does not pipeline (compiled %v)", policies[i].name, net.Name, c, ok)
					}
					continue
				}
				sync, _ := compile(t, i, algo.Config{Network: net}, c)
				compared++
				pr, sr := execute(t, pipe, *net, a, b).rep, execute(t, sync, *net, a, b).rep
				if !pr.Overlap || sr.Overlap {
					t.Errorf("%s %+v: reports record overlap %v and %v, want true and false", pipe.Name, c, pr.Overlap, sr.Overlap)
				}
				x, y := pr.CritPathTime, sr.CritPathTime
				key := fmt.Sprintf("%s %d×%d×%d", net.Name, c.m, c.n, c.k)
				listed, ok := slower[key]
				if pct := 100 * (x/y - 1); x > y && (!ok || pct > listed+0.005) {
					t.Errorf("%s %s %+v grid %s: pipelined %.6g s, synchronous %.6g s (%+.2f %%, listed %v %.2f %%)",
						key, pipe.Name, c, pipe.Grid, x, y, pct, ok, listed)
				}
			}
		}
	}
	if compared == 0 {
		t.Fatal("no plan pipelines: the test compares nothing")
	}
}
