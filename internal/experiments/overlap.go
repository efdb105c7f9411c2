package experiments

import (
	"fmt"
	"math/rand"

	"cosma/internal/algo"
	"cosma/internal/core"
	"cosma/internal/machine"
	"cosma/internal/matrix"
	"cosma/internal/report"
)

// OverlapGain executes COSMA twice per core count on the timed
// transport — once synchronous, once with the software-pipelined round
// loop — and tabulates the measured critical-path times next to the
// analytic serial/overlapped predictions: the Figure 12 comparison
// (§7.3), with the measured gain column showing how much of the
// communication the pipeline hid behind the kernel. Memory is squeezed
// to ~3 output tiles per rank so every run has enough rounds for the
// pipeline to matter.
func OverlapGain(net machine.NetworkParams) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Communication–computation overlap on the %q network — COSMA executed both ways (Figure 12 shape)", net.Name),
		"cores", "algorithm", "grid", "critical path", "critical path (overlap)", "measured gain",
		"predicted", "predicted (overlap)", "predicted gain")
	rng := rand.New(rand.NewSource(12))
	n := 256
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	for _, p := range []int{4, 16, 64} {
		s := 3 * n * n / p
		serial, err := runCOSMA(a, b, p, s, net, false)
		if err != nil {
			t.AddRow(p, "COSMA", "error: "+err.Error(), "-", "-", "-", "-", "-", "-")
			continue
		}
		overlapped, err := runCOSMA(a, b, p, s, net, true)
		if err != nil {
			t.AddRow(p, "COSMA", "error: "+err.Error(), "-", "-", "-", "-", "-", "-")
			continue
		}
		t.AddRow(p, "COSMA", serial.Grid,
			report.Seconds(serial.CritPathTime),
			report.Seconds(overlapped.CritPathTime),
			gain(serial.CritPathTime, overlapped.CritPathTime),
			report.Seconds(serial.PredictedTime),
			report.Seconds(serial.PredictedOverlapTime),
			gain(serial.PredictedTime, serial.PredictedOverlapTime))
	}
	return t
}

func runCOSMA(a, b *matrix.Dense, p, s int, net machine.NetworkParams, overlap bool) (*algo.Report, error) {
	_, rep, err := algo.Run(core.Plan, algo.Config{Overlap: overlap}, &net, a, b, p, s)
	return rep, err
}

// gain formats the ×-speedup of after over before, the Figure 12 axis.
func gain(before, after float64) string {
	if after <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f×", before/after)
}
