package algo

import "cosma/internal/machine"

// Model is a plan's analytic communication/computation prediction for an
// m×n×k multiplication on p ranks with S words of memory per rank. The
// Algorithm 1 plans (COSMA, SUMMA, 2.5D) count their words rank by rank
// from the partitions their rank program walks, so AvgRecv and MaxRecv
// equal what an execution measures; Cannon's is derived from its torus
// schedule; CARMA's Q is the recursive closed form of Table 3
// (costmodel.Recursive) — the one exception. MaxMsgs is a receive-side
// estimate (the machine also counts a rank's sends). Models evaluate at
// any scale, including the paper's 18,432-core runs that are too large to
// execute in-process.
type Model struct {
	Name     string
	Grid     string  // human-readable decomposition
	Used     int     // ranks that perform work
	AvgRecv  float64 // average received words per rank (over all p ranks)
	MaxRecv  float64 // received words on the busiest rank
	MaxMsgs  float64 // messages on the busiest rank (latency proxy L)
	MaxFlops float64 // flops on the busiest rank (2·work)
}

// Time is the α-β-γ price of the model on net, in seconds — the one place
// a model's three counts meet the network's three constants. Serially it
// is γ·MaxFlops + β·MaxRecv + α·MaxMsgs; with overlap (§7.3) communication
// and computation hide each other: max(γ·MaxFlops, β·MaxRecv + α·MaxMsgs).
// Cross-algorithm comparisons pass overlap = false: charging the two
// serially is conservative and identical for every algorithm; Figure 12
// quantifies the overlap gain separately.
func (mod Model) Time(net machine.NetworkParams, overlap bool) float64 {
	if overlap {
		return net.TimeOverlap(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs)
	}
	return net.Time(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs)
}

// Report describes one executed run on the simulated machine.
type Report struct {
	Name      string
	Grid      string
	P         int     // machine size
	Used      int     // ranks that performed work
	AvgRecv   float64 // measured average received words per rank
	MaxRecv   int64
	MaxVolume int64 // sent + received words on the busiest rank
	Total     int64 // total words moved (each counted once)
	MaxMsgs   int64
	Model     Model // the analytic prediction for the same parameters

	// Overlap records whether the executed schedule pipelined its
	// rounds (communication–computation overlap, §7.3); CritPathTime
	// then reflects the overlapped critical path.
	Overlap bool

	// Attempts counts the executions behind this report: 1 for a run
	// that succeeded first try, more when a retrying engine
	// (cosma.WithRetry) re-ran after transient faults. The traffic
	// columns describe the final, successful attempt only.
	Attempts int

	// Network names the timed transport's preset when the run executed
	// on one; empty for counting-only runs, in which case the time
	// fields are zero.
	Network string
	// PredictedTime is the analytic α-β-γ evaluation of Model on the
	// run's network with communication and computation charged
	// serially: γ·MaxFlops + β·MaxRecv + α·MaxMsgs, in seconds.
	PredictedTime float64
	// PredictedOverlapTime is the same evaluation with full overlap
	// (§7.3): max(γ·MaxFlops, β·MaxRecv + α·MaxMsgs). Reports carry
	// both so the Figure 12 gain is the ratio of the two fields,
	// whichever way the run itself executed.
	PredictedOverlapTime float64
	// CritPathTime is the measured critical path of the executed
	// schedule — the latest per-rank event clock — in seconds.
	CritPathTime float64
}

// NewReport assembles the Report of a finished run of plan on m. Runs on
// a timed transport gain runtime predictions for free: the measured
// event-clock critical path and the price of the plan's model under the
// same network parameters.
func NewReport(m *machine.Machine, plan *Plan) *Report {
	rep := &Report{
		Name:      plan.Name,
		Grid:      plan.Grid,
		P:         m.P(),
		Used:      plan.Used,
		Attempts:  1,
		AvgRecv:   m.AvgRecv(),
		MaxRecv:   m.MaxRecv(),
		MaxVolume: m.MaxVolume(),
		Total:     m.TotalVolume(),
		MaxMsgs:   m.MaxMessages(),
		Model:     plan.Model,
		Overlap:   plan.Overlap,
	}
	if net, ok := m.Network(); ok {
		rep.Network = net.Name
		rep.PredictedTime = plan.Time(net, false)
		rep.PredictedOverlapTime = plan.Time(net, true)
		rep.CritPathTime = m.MaxTime()
	}
	return rep
}

// PredictedAsExecuted returns the analytic prediction matching how the
// run executed: the overlapped evaluation for pipelined runs, the
// serial one otherwise — the number CritPathTime should be compared
// against.
func (r *Report) PredictedAsExecuted() float64 {
	if r.Overlap {
		return r.PredictedOverlapTime
	}
	return r.PredictedTime
}
