package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"

	"cosma/internal/algo"
	"cosma/internal/baselines"
	"cosma/internal/bound"
	"cosma/internal/core"
	"cosma/internal/grid"
	"cosma/internal/layout"
	"cosma/internal/machine"
	"cosma/internal/matrix"
	"cosma/internal/report"
	"cosma/internal/seq"
	"cosma/internal/workload"
)

const wordsToMB = 8.0 / 1e6

// perUsedRecv converts a model's all-rank average received words into the
// average over ranks that actually work. Idle ranks (CARMA's power-of-two
// remainder, COSMA's fitted-out δ share) would otherwise dilute the
// figure, hiding the extra traffic the active ranks carry.
func perUsedRecv(mod algo.Model, p int) float64 {
	return mod.AvgRecv * float64(p) / float64(mod.Used)
}

// feasible reports whether a configuration satisfies the distributed
// model's pS ≥ mn + mk + nk requirement (§6).
func feasible(c workload.Config) bool {
	return float64(c.P)*float64(c.S) >= c.InputWords()
}

var (
	shapes  = []workload.Shape{workload.Square, workload.LargeK, workload.LargeM, workload.Flat}
	regimes = []workload.Regime{workload.StrongScaling, workload.LimitedMemory, workload.ExtraMemory}
)

// cell is one configuration with the models of the paper's comparison
// set on it, in baselines.Algorithms order (COSMA first).
type cell struct {
	workload.Config
	mods []algo.Model
}

// compare plans every algorithm of the comparison set on c. ok is false
// when c is infeasible or an algorithm refuses the shape
// (algo.ErrUnsupportedShape) — a row to skip; any other planning error is
// a bug and panics.
func compare(c workload.Config) (_ cell, ok bool) {
	if !feasible(c) {
		return cell{}, false
	}
	var mods []algo.Model
	for _, r := range baselines.Algorithms {
		pl, err := r.Plan(algo.Config{}, c.M, c.N, c.K, c.P, c.S)
		if errors.Is(err, algo.ErrUnsupportedShape) {
			return cell{}, false
		} else if err != nil {
			panic(fmt.Sprintf("experiments: %s on %v: %v", r.Display, c, err))
		}
		mods = append(mods, pl.Model)
	}
	return cell{c, mods}, true
}

// timeSec predicts mod's runtime on Piz Daint, communication and
// computation charged serially.
func timeSec(mod algo.Model) float64 { return mod.Time(machine.PizDaintNet(), false) }

// pctPeak is the % of aggregate machine peak mod achieves on the cell's
// problem: the time p ranks at peak need for the 2mnk useful flops, over
// the predicted time set by the busiest rank.
func (c cell) pctPeak(mod algo.Model) float64 {
	useful := 2 * float64(c.M) * float64(c.N) * float64(c.K)
	return 100 * machine.PizDaintNet().Time(useful/float64(c.P), 0, 0) / timeSec(mod)
}

// sweeps plans the paper's evaluation (§8) once per process: for every
// shape and regime, each feasible core count of the sweep. Figures 6–11,
// 13/14 and Table 4 are renderings of these cells, and fitting their
// grids takes longer than rendering all of them.
var sweeps = sync.OnceValue(func() map[workload.Shape]map[workload.Regime][]cell {
	out := map[workload.Shape]map[workload.Regime][]cell{}
	for _, shape := range shapes {
		out[shape] = map[workload.Regime][]cell{}
		for _, regime := range regimes {
			for _, p := range workload.CoreCounts() {
				if c, ok := compare(workload.Generate(shape, regime, p)); ok {
					out[shape][regime] = append(out[shape][regime], c)
				}
			}
		}
	}
	return out
})

// CommVolume regenerates a Figure 6/7-style panel: average received MB
// per core for every algorithm across the core-count sweep, using the
// plans' models at paper scale.
func CommVolume(shape workload.Shape, regime workload.Regime) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Communication volume per core [MB] — %s, %s (Figures 6/7)", shape, regime),
		"cores", "COSMA", "ScaLAPACK", "CTF", "CARMA", "LowerBound")
	for _, c := range sweeps()[shape][regime] {
		row := []interface{}{c.P}
		for _, mod := range c.mods {
			row = append(row, perUsedRecv(mod, c.P)*wordsToMB)
		}
		t.AddRow(append(row, bound.ParallelLowerBound(c.M, c.N, c.K, c.P, c.S)*wordsToMB)...)
	}
	return t
}

// predicted renders one performance-model value per algorithm for every
// core count of a sweep.
func predicted(title string, shape workload.Shape, regime workload.Regime, value func(cell, algo.Model) float64) *report.Table {
	t := report.NewTable(fmt.Sprintf(title, shape, regime), "cores", "COSMA", "ScaLAPACK", "CTF", "CARMA")
	for _, c := range sweeps()[shape][regime] {
		row := []interface{}{c.P}
		for _, mod := range c.mods {
			row = append(row, value(c, mod))
		}
		t.AddRow(row...)
	}
	return t
}

// PctPeak regenerates a Figure 8/10-style panel: % of peak flop/s for
// every algorithm across the sweep under the performance model.
func PctPeak(shape workload.Shape, regime workload.Regime) *report.Table {
	return predicted("%% of peak performance — %s, %s (Figures 8/10)", shape, regime, cell.pctPeak)
}

// Runtime regenerates a Figure 9/11-style panel: total simulated runtime
// in milliseconds.
func Runtime(shape workload.Shape, regime workload.Regime) *report.Table {
	return predicted("Total runtime [ms] — %s, %s (Figures 9/11)", shape, regime,
		func(_ cell, mod algo.Model) float64 { return timeSec(mod) * 1e3 })
}

// Table4 regenerates Table 4: for each shape and regime, the mean over
// the core-count sweep of the per-rank communication volume of each
// algorithm, and COSMA's speedup over the second-best algorithm under the
// performance model (min / geometric mean / max over the sweep).
func Table4() *report.Table {
	t := report.NewTable(
		"Table 4: mean comm volume per rank [MB] and COSMA speedup vs second-best",
		"shape", "benchmark", "ScaLAPACK", "CTF", "CARMA", "COSMA",
		"min", "mean", "max")
	for _, shape := range shapes {
		for _, regime := range regimes {
			cells := sweeps()[shape][regime]
			if len(cells) == 0 {
				continue
			}
			points := float64(len(cells))
			sums := make([]float64, len(cells[0].mods))
			minSp, maxSp, logSum := math.Inf(1), 0.0, 0.0
			for _, c := range cells {
				secondBest := math.Inf(1)
				for i, mod := range c.mods {
					sums[i] += perUsedRecv(mod, c.P) * wordsToMB
					if i > 0 { // COSMA is the comparison set's first
						secondBest = min(secondBest, timeSec(mod))
					}
				}
				sp := secondBest / timeSec(c.mods[0])
				minSp, maxSp = min(minSp, sp), max(maxSp, sp)
				logSum += math.Log(sp)
			}
			row := []interface{}{shape.String(), regime.String()}
			for _, sum := range append(sums[1:], sums[0]) { // the baselines, then COSMA
				row = append(row, sum/points)
			}
			t.AddRow(append(row, minSp, math.Exp(logSum/points), maxSp)...)
		}
	}
	return t
}

// Fig3 quantifies Figure 3's bottom-up-vs-top-down message on p = 8: a
// fixed [2×2×2] 3D split against the grid COSMA's plan runs and the
// words its plan counts. For square,
// ample-memory problems the two coincide (the cubic domain is optimal);
// for tall matrices the top-down split pays broadcast traffic on the
// small faces that the bottom-up schedule avoids entirely — the regime
// where the paper reports its largest reductions.
func Fig3() *report.Table {
	const p, s = 8, 1 << 21
	topDown := grid.Grid{Pm: 2, Pn: 2, Pk: 2}
	t := report.NewTable(
		fmt.Sprintf("Figure 3: top-down 3D vs bottom-up COSMA traffic, p=%d, S=2^21", p),
		"shape", "m", "n", "k", "3D words/rank", "COSMA grid", "COSMA words/rank", "reduction")
	cases := []struct {
		name    string
		m, n, k int
	}{
		{"square", 1 << 10, 1 << 10, 1 << 10},
		{"largeK", 128, 128, 1 << 20},
		{"flat", 1 << 12, 1 << 12, 64},
	}
	for _, c := range cases {
		v3 := topDown.ModelVolume(c.m, c.n, c.k)
		pl, err := core.Plan(algo.Config{}, c.m, c.n, c.k, p, s)
		if err != nil {
			panic(fmt.Sprintf("experiments: COSMA on %+v: %v", c, err))
		}
		vC := pl.Model.AvgRecv // over all p ranks, idle ones included, like v3's
		t.AddRow(c.name, c.m, c.n, c.k, v3, pl.Model.Grid, vC,
			fmt.Sprintf("%.1f%%", 100*(1-vC/v3)))
	}
	return t
}

// Fig5 regenerates Figure 5: processor grids for a square problem on 65
// ranks, with and without the idle-rank optimization.
func Fig5() *report.Table {
	m := 4096
	s := 1 << 22
	full := grid.Fit(m, m, m, 65, s, 0) // δ = 0: must use all 65
	tuned := grid.Fit(m, m, m, 65, s, core.DefaultDelta)
	t := report.NewTable(
		"Figure 5: grid fitting for p=65, square n=4096",
		"strategy", "grid", "ranks used", "words/rank", "work/rank")
	dmF, dnF, dkF := full.LocalDims(m, m, m)
	dmT, dnT, dkT := tuned.LocalDims(m, m, m)
	t.AddRow("all 65 ranks", full.String(), full.Ranks(),
		full.ModelVolume(m, m, m), float64(dmF)*float64(dnF)*float64(dkF))
	t.AddRow("δ=3% idle allowed", tuned.String(), tuned.Ranks(),
		tuned.ModelVolume(m, m, m), float64(dmT)*float64(dnT)*float64(dkT))
	return t
}

// SeqIO regenerates the Listing 1 / Theorem 1 experiment: the measured
// vertical I/O of the executed sequential schedule against the lower
// bound, across memory sizes.
func SeqIO() *report.Table {
	t := report.NewTable(
		"Sequential I/O: Listing 1 measured vs Theorem 1 bound (m=n=k=96)",
		"S [words]", "tile a×b", "measured Q", "bound 2mnk/√S+mn", "ratio", "gap √S/(√(S+1)−1)")
	rng := rand.New(rand.NewSource(42))
	n := 96
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	for _, s := range []int{16, 64, 256, 1024, 4096} {
		res := seq.Multiply(a, b, s)
		lb := bound.SequentialLowerBound(n, n, n, s)
		t.AddRow(s, fmt.Sprintf("%d×%d", res.TileA, res.TileB),
			float64(res.IO()), lb, float64(res.IO())/lb, bound.SequentialGap(s))
	}
	return t
}

// Fig12 regenerates Figure 12: the communication/computation breakdown of
// COSMA for each shape at the smallest and largest strong-scaling core
// counts, with and without overlap.
func Fig12() *report.Table {
	net := machine.PizDaintNet()
	t := report.NewTable(
		"Figure 12: COSMA time breakdown [ms], strong scaling",
		"shape", "cores", "compute", "input A/B", "output C", "total no-overlap", "total overlap")
	for _, shape := range shapes {
		for _, p := range []int{2048, 18432} {
			c := workload.Generate(shape, workload.StrongScaling, p)
			if !feasible(c) {
				continue
			}
			pl, err := core.Plan(algo.Config{}, c.M, c.N, c.K, c.P, c.S)
			if err != nil {
				panic(fmt.Sprintf("experiments: COSMA on %+v: %v", c, err))
			}
			compute, input, output := split(net, pl.Model, outputWords(pl.Geometry))
			t.AddRow(shape.String(), p, compute*1e3, input*1e3, output*1e3,
				pl.Time(net, false)*1e3, pl.Time(net, true)*1e3)
		}
	}
	return t
}

// outputWords is the C traffic of COSMA's busiest rank: the fiber
// reduce-scatters the dm×dn tile, so a member receives its block of the
// tile, cut as core's count cuts it (layout.Block, the largest block),
// from each of the Pk−1 other members.
func outputWords(d algo.Decomposition) float64 {
	tile := d.DomainM * d.DomainN
	return float64((d.GridPk - 1) * layout.Block(tile, d.GridPk, d.GridPk-1).Len())
}

// split is Figure 12's breakdown of mod's serial time on net into
// computation, input (A and B panels) and output (reducing C)
// communication, taking outWords of the model's MaxRecv words as output
// traffic and charging the messages to the input side.
func split(net machine.NetworkParams, mod algo.Model, outWords float64) (compute, input, output float64) {
	return net.Time(mod.MaxFlops, 0, 0), net.Time(0, mod.MaxRecv-outWords, mod.MaxMsgs), net.Time(0, outWords, 0)
}

// Fig13 regenerates Figures 13/14: the distribution (min / median / max
// over core counts) of achieved % of peak for every algorithm in every
// scenario.
func Fig13() *report.Table {
	t := report.NewTable(
		"Figures 13/14: distribution of % peak across core counts",
		"shape", "benchmark", "algorithm", "min", "median", "max")
	for _, shape := range shapes {
		for _, regime := range regimes {
			cells := sweeps()[shape][regime]
			if len(cells) == 0 {
				continue
			}
			for i, mod := range cells[0].mods {
				samples := make([]float64, len(cells))
				for j, c := range cells {
					samples[j] = c.pctPeak(c.mods[i])
				}
				sort.Float64s(samples)
				t.AddRow(shape.String(), regime.String(), mod.Name,
					samples[0], samples[len(samples)/2], samples[len(samples)-1])
			}
		}
	}
	return t
}

// Unfavorable regenerates the §9 "unfavorable number of processors"
// comparison: p = 9216 vs 9217 for COSMA (stable thanks to grid fitting)
// and the 2.5D decomposition (unstable).
func Unfavorable() *report.Table {
	n := 16384
	s := workload.MemoryWordsPerCore
	t := report.NewTable(
		"Unfavorable processor count: m=n=k=16384",
		"algorithm", "p", "grid", "time [ms]", "words/rank")
	for _, p := range []int{9216, 9217} {
		c, _ := compare(workload.Config{M: n, N: n, K: n, P: p, S: s})
		for _, mod := range c.mods {
			t.AddRow(mod.Name, p, mod.Grid, timeSec(mod)*1e3, mod.AvgRecv)
		}
	}
	return t
}

// Validate executes all four algorithms on the machine simulator at a
// small scale and reports measured vs modeled per-rank traffic — the
// evidence that the paper-scale model numbers are trustworthy.
func Validate() *report.Table {
	t := report.NewTable(
		"Model validation: measured (executed) vs modeled received words/rank",
		"algorithm", "m", "n", "k", "p", "measured", "model", "ratio")
	rng := rand.New(rand.NewSource(7))
	cases := []struct{ m, k, n, p, s int }{
		{32, 32, 32, 8, 1 << 20},
		{16, 128, 16, 16, 1 << 20},
		{64, 16, 32, 16, 1 << 20},
		{48, 48, 48, 16, 2000},
	}
	for _, c := range cases {
		a := matrix.Random(c.m, c.k, rng)
		b := matrix.Random(c.k, c.n, rng)
		for _, r := range baselines.Algorithms {
			_, rep, err := algo.Run(r.Plan, algo.Config{}, nil, a, b, c.p, c.s)
			if errors.Is(err, algo.ErrUnsupportedShape) {
				continue
			} else if err != nil {
				panic(fmt.Sprintf("experiments: %s on %+v: %v", r.Display, c, err))
			}
			t.AddRow(r.Display, c.m, c.n, c.k, c.p, rep.AvgRecv, rep.Model.AvgRecv, rep.AvgRecv/rep.Model.AvgRecv)
		}
	}
	return t
}

// Table1 regenerates the qualitative Table 1 comparison, augmented with
// concrete model volumes on a representative problem.
func Table1() *report.Table {
	t := report.NewTable(
		"Table 1: decomposition comparison (concrete volumes for square n=16384, p=1024, S=2^27)",
		"algorithm", "step 1", "step 2", "words/rank")
	c, _ := compare(workload.Generate(workload.Square, workload.StrongScaling, 1024))
	steps := map[string][2]string{
		"COSMA":              {"find optimal sequential schedule", "map sequential domain to matrices"},
		"ScaLAPACK/SUMMA-2D": {"split m and n", "map matrices to grid"},
		"CTF/2.5D":           {"split m, n, k", "map matrices to grid"},
		"CARMA-recursive":    {"split largest dim recursively", "map matrices to recursion tree"},
	}
	for _, mod := range c.mods {
		s := steps[mod.Name]
		t.AddRow(mod.Name, s[0], s[1], mod.AvgRecv)
	}
	return t
}
