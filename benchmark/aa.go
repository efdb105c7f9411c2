package main

import (
	"fmt"
	"sort"
)

// quartiles returns the first, second and third quartile of xs as
// Python's statistics.quantiles(xs, n=4) computes them (the exclusive
// method), which is what the acceptance check of BENCHMARK.json uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), xs...)
	sort.Float64s(data)
	at := func(i int) float64 {
		const n = 4
		j, delta := i*(len(data)+1)/n, i*(len(data)+1)%n
		if j < 1 {
			j, delta = 1, 0
		} else if j > len(data)-1 {
			j, delta = len(data)-1, n
		}
		return (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return at(1), at(2), at(3)
}

// spreads is the A/A mode: it runs the untraced pass runs times per
// workload on this one binary, a new seed each time, and prints for
// every workload × end-to-end metric the interquartile distance as a
// share of the median next to the metric's bound. A timing metric whose
// spread does not stay under a third of its bound needs a longer window
// (or, for setup_s, more fresh-engine samples), not a wider bound.
func spreads(runs int, seed int64, seconds float64) error {
	if runs < 2 {
		return fmt.Errorf("-aa needs at least 2 runs")
	}
	wide := 0
	fmt.Printf("%d runs per workload, seeds %d..%d, %g s windows\n", runs, seed, seed+int64(runs)-1, seconds)
	fmt.Printf("%-14s %-18s %14s %10s %8s  %s\n", "workload", "metric", "median", "iqr/med", "bound", "")
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < runs; i++ {
			res, err := child(w.name, seed+int64(i), seconds, 0, "")
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
			}
			for name, v := range res.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(values[d.Name])
			spread := (q3 - q1) / q2
			verdict := "ok"
			switch {
			case spread > d.Bound:
				verdict = "EXCEEDS BOUND"
				wide++
			case spread > d.Bound/3:
				verdict = "above a third of the bound"
			}
			fmt.Printf("%-14s %-18s %14.6g %10.4f %8.2f  %s\n", w.name, d.Name, q2, spread, d.Bound, verdict)
		}
	}
	if wide > 0 {
		return fmt.Errorf("%d spreads exceed their bound", wide)
	}
	return nil
}
