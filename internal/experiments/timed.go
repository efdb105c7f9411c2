package experiments

import (
	"errors"
	"fmt"
	"math/rand"

	"cosma/internal/algo"
	"cosma/internal/baselines"
	"cosma/internal/machine"
	"cosma/internal/matrix"
	"cosma/internal/report"
)

// TimeVsVolume executes COSMA and every baseline (including Cannon where
// its square-grid restriction allows) on the timed transport and tabulates
// measured communication volume against predicted runtime — the shape of
// the paper's Figure 6 comparison, at simulation scale, with time instead
// of (only) volume on the y axis. Memory is constrained to ~3 output
// tiles per rank so the algorithms are squeezed into their
// limited-memory regimes, where their volumes genuinely differ. The
// algorithms with a pipelined round loop (COSMA, SUMMA, 2.5D) run with
// overlap enabled, so the comparison is overlapped against overlapped —
// no algorithm gains an artificial edge from the others executing
// serially.
func TimeVsVolume(net machine.NetworkParams) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Time vs volume on the %q network — executed at simulation scale (Figure 6 shape)", net.Name),
		"cores", "algorithm", "grid", "max words/rank", "max msgs", "predicted", "critical path")
	rng := rand.New(rand.NewSource(3))
	n := 256
	a := matrix.Random(n, n, rng)
	b := matrix.Random(n, n, rng)
	for _, p := range []int{4, 16, 64} {
		s := 3 * n * n / p
		for _, r := range baselines.Algorithms {
			_, rep, err := algo.Run(r.Plan, algo.Config{Overlap: true}, &net, a, b, p, s)
			if errors.Is(err, algo.ErrUnsupportedShape) {
				continue // Cannon's square-torus/divisibility restriction
			} else if err != nil {
				t.AddRow(p, r.Display, "error: "+err.Error(), "-", "-", "-", "-")
				continue
			}
			t.AddRow(p, rep.Name, rep.Grid, float64(rep.MaxVolume),
				float64(rep.MaxMsgs), report.Seconds(rep.PredictedAsExecuted()),
				report.Seconds(rep.CritPathTime))
		}
	}
	return t
}
