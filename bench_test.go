package cosma

// Benchmarks regenerating the paper's tables and figures — one target per
// experiment, per the DESIGN.md index. Run e.g.:
//
//	go test -bench=BenchmarkTable4 -benchmem
//
// Each bench reports the experiment's headline quantity as custom metrics
// (words/rank, %-peak, ms) so `go test -bench=.` output doubles as the
// numeric record behind EXPERIMENTS.md.

import (
	"testing"

	"cosma/internal/algo"
	"cosma/internal/baselines"
	"cosma/internal/bound"
	"cosma/internal/core"
	"cosma/internal/experiments"
	"cosma/internal/grid"
	"cosma/internal/matrix"
	"cosma/internal/pebble"
	"cosma/internal/seq"
	"cosma/internal/workload"
)

// BenchmarkFig3Decomposition — Figure 3: bottom-up vs top-down
// decomposition traffic on p = 8, on the tall shape where the fixed 3D
// split pays for its small faces.
func BenchmarkFig3Decomposition(b *testing.B) {
	m, n, k, s := 128, 128, 1<<20, 1<<21
	topDown := grid.Grid{Pm: 2, Pn: 2, Pk: 2}
	var bottomUp grid.Grid
	for i := 0; i < b.N; i++ {
		bottomUp = grid.Fit(m, n, k, 8, s, core.DefaultDelta)
	}
	b.ReportMetric(topDown.ModelVolume(m, n, k), "words/rank-3D")
	b.ReportMetric(bottomUp.ModelVolume(m, n, k), "words/rank-COSMA")
}

// BenchmarkListing1SequentialIO — Figure 4 / Listing 1: executed
// sequential schedule I/O against the Theorem 1 bound.
func BenchmarkListing1SequentialIO(b *testing.B) {
	n, s := 96, 1024
	a := RandomMatrix(n, n, 1)
	bb := RandomMatrix(n, n, 2)
	var res *seq.Result
	for i := 0; i < b.N; i++ {
		res = seq.Multiply(a, bb, s)
	}
	b.ReportMetric(float64(res.IO()), "IO-words")
	b.ReportMetric(float64(res.IO())/bound.SequentialLowerBound(n, n, n, s), "IO/bound")
}

// BenchmarkTheorem1Greedy — Theorem 1: pebble-game-counted greedy
// schedule I/O on the MMM CDAG.
func BenchmarkTheorem1Greedy(b *testing.B) {
	d := pebble.BuildMMM(24, 24, 24)
	ta, tb := bound.OptimalTile(37)
	s := d.GreedyPeakRed(ta, tb)
	var io int
	for i := 0; i < b.N; i++ {
		game := pebble.NewGame(d.Graph, s)
		if err := game.Run(d.GreedyMoves(ta, tb)); err != nil {
			b.Fatal(err)
		}
		io = game.IO()
	}
	b.ReportMetric(float64(io), "IO-ops")
	b.ReportMetric(float64(io)/bound.SequentialLowerBound(24, 24, 24, s), "IO/bound")
}

// BenchmarkFig5GridFitting — Figure 5: the p = 65 grid-fitting win.
func BenchmarkFig5GridFitting(b *testing.B) {
	n, s := 4096, 1<<22
	var tuned grid.Grid
	for i := 0; i < b.N; i++ {
		tuned = grid.Fit(n, n, n, 65, s, core.DefaultDelta)
	}
	full := grid.Fit(n, n, n, 65, s, 0)
	b.ReportMetric(tuned.ModelVolume(n, n, n), "words/rank-tuned")
	b.ReportMetric(full.ModelVolume(n, n, n), "words/rank-all65")
}

// BenchmarkTable3Closed — Table 3: closed-form cost rows.
func BenchmarkTable3Closed(b *testing.B) {
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = 0
		for _, t := range experiments.Table3() {
			rows += t.Rows()
		}
	}
	b.ReportMetric(float64(rows), "rows")
}

// benchCommVolume produces a Figure 6/7-style series and reports COSMA
// against the best baseline at the largest feasible core count (the
// right-hand end of the figure's x axis).
func benchCommVolume(b *testing.B, shape workload.Shape, regime workload.Regime) {
	b.Helper()
	var cosma, best float64
	for i := 0; i < b.N; i++ {
		for _, p := range workload.CoreCounts() {
			c := workload.Generate(shape, regime, p)
			if float64(c.P)*float64(c.S) < c.InputWords() {
				continue
			}
			best = -1
			for j, r := range baselines.Algorithms {
				if !r.Comparison {
					continue
				}
				plan, err := r.Plan(algo.Config{}, c.M, c.N, c.K, c.P, c.S)
				if err != nil {
					b.Fatal(err)
				}
				mod := plan.Model
				if j == 0 {
					cosma = mod.AvgRecv
				} else if best < 0 || mod.AvgRecv < best {
					best = mod.AvgRecv
				}
			}
		}
	}
	b.ReportMetric(cosma*8/1e6, "MB/rank-COSMA")
	b.ReportMetric(best*8/1e6, "MB/rank-best-baseline")
}

// BenchmarkFig6CommSquare — Figure 6: communication volume, square.
func BenchmarkFig6CommSquare(b *testing.B) {
	benchCommVolume(b, workload.Square, workload.StrongScaling)
}

// BenchmarkFig6CommSquareLimited — Figure 6b.
func BenchmarkFig6CommSquareLimited(b *testing.B) {
	benchCommVolume(b, workload.Square, workload.LimitedMemory)
}

// BenchmarkFig6CommSquareExtra — Figure 6c.
func BenchmarkFig6CommSquareExtra(b *testing.B) {
	benchCommVolume(b, workload.Square, workload.ExtraMemory)
}

// BenchmarkFig7CommLargeK — Figure 7: communication volume, largeK.
func BenchmarkFig7CommLargeK(b *testing.B) {
	benchCommVolume(b, workload.LargeK, workload.StrongScaling)
}

// BenchmarkFig7CommLargeKLimited — Figure 7b.
func BenchmarkFig7CommLargeKLimited(b *testing.B) {
	benchCommVolume(b, workload.LargeK, workload.LimitedMemory)
}

// BenchmarkFig7CommLargeKExtra — Figure 7c.
func BenchmarkFig7CommLargeKExtra(b *testing.B) {
	benchCommVolume(b, workload.LargeK, workload.ExtraMemory)
}

// benchPctPeak reports COSMA's %-peak at the largest feasible p.
func benchPctPeak(b *testing.B, shape workload.Shape, regime workload.Regime) {
	b.Helper()
	net := PizDaintNetwork()
	var pct float64
	for i := 0; i < b.N; i++ {
		for _, p := range workload.CoreCounts() {
			c := workload.Generate(shape, regime, p)
			if float64(c.P)*float64(c.S) < c.InputWords() {
				continue
			}
			plan, err := core.Plan(algo.Config{}, c.M, c.N, c.K, c.P, c.S)
			if err != nil {
				b.Fatal(err)
			}
			useful := 2 * float64(c.M) * float64(c.N) * float64(c.K)
			pct = 100 * net.Time(useful/float64(c.P), 0, 0) / plan.Time(net, false)
		}
	}
	b.ReportMetric(pct, "%peak-COSMA-maxp")
}

// BenchmarkFig8PeakSquare — Figure 8: % of peak, square matrices.
func BenchmarkFig8PeakSquare(b *testing.B) {
	benchPctPeak(b, workload.Square, workload.StrongScaling)
}

// BenchmarkFig9RuntimeSquare — Figure 9: runtime series, square.
func BenchmarkFig9RuntimeSquare(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = experiments.Runtime(workload.Square, workload.LimitedMemory).Rows()
	}
	b.ReportMetric(float64(rows), "series-points")
}

// BenchmarkFig10PeakLargeK — Figure 10: % of peak, largeK.
func BenchmarkFig10PeakLargeK(b *testing.B) {
	benchPctPeak(b, workload.LargeK, workload.StrongScaling)
}

// BenchmarkFig11RuntimeLargeK — Figure 11: runtime series, largeK.
func BenchmarkFig11RuntimeLargeK(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = experiments.Runtime(workload.LargeK, workload.ExtraMemory).Rows()
	}
	b.ReportMetric(float64(rows), "series-points")
}

// BenchmarkFig12Breakdown — Figure 12: COSMA's comm/comp breakdown.
func BenchmarkFig12Breakdown(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig12().Rows()
	}
	b.ReportMetric(float64(rows), "breakdown-rows")
}

// BenchmarkFig13Distribution — Figures 13/14: %-peak distributions.
func BenchmarkFig13Distribution(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig13().Rows()
	}
	b.ReportMetric(float64(rows), "distribution-rows")
}

// BenchmarkTable4 — Table 4: all 12 scenarios and speedups.
func BenchmarkTable4(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = experiments.Table4().Rows()
	}
	b.ReportMetric(float64(rows), "scenarios")
}

// BenchmarkAblationIOLatency — §6.3 trade-off ablation.
func BenchmarkAblationIOLatency(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = experiments.IOLatency().Rows()
	}
	b.ReportMetric(float64(rows), "sweep-points")
}

// BenchmarkAblationDelta — §7.1 idle-tolerance ablation.
func BenchmarkAblationDelta(b *testing.B) {
	var rows int
	for i := 0; i < b.N; i++ {
		rows = experiments.DeltaAblation().Rows()
	}
	b.ReportMetric(float64(rows), "sweep-points")
}

// BenchmarkExecutedCOSMA measures the executed (data-moving) COSMA on the
// machine simulator — the integration hot path.
func BenchmarkExecutedCOSMA(b *testing.B) {
	a := RandomMatrix(128, 128, 1)
	bb := RandomMatrix(128, 128, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := algo.Run(core.Plan, algo.Config{}, nil, a, bb, 8, 1<<16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLocalKernel measures the blocked dgemm substitute for MKL.
func BenchmarkLocalKernel(b *testing.B) {
	n := 256
	a := RandomMatrix(n, n, 1)
	bb := RandomMatrix(n, n, 2)
	c := NewMatrix(n, n)
	k := matrix.NewKernel(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Mul(c, a, bb)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
}
