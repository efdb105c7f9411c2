package algo

import (
	"math"

	"cosma/internal/machine"
)

// Model is a plan's analytic communication/computation prediction for an
// m×n×k multiplication on p ranks with S words of memory per rank. The
// Algorithm 1 plans (COSMA, SUMMA, 2.5D, CARMA) count their words and
// messages rank by rank from the round table their rank program walks,
// so AvgRecv, MaxRecv and MaxMsgs equal what an execution measures;
// Cannon's count its torus schedule rank by rank, and equal it too.
// MaxMsgs counts messages sent plus received on the busiest rank, as
// machine.Counters.Messages does. Models evaluate at any scale, including
// the paper's 18,432-core runs that are too large to execute in-process.
type Model struct {
	Name     string
	Grid     string  // human-readable decomposition
	Used     int     // ranks that perform work
	AvgRecv  float64 // average received words per rank (over all p ranks)
	MaxRecv  float64 // received words on the busiest rank
	MaxMsgs  float64 // messages sent + received on the busiest rank (latency proxy L)
	MaxFlops float64 // flops on the busiest rank (2·work)
}

// Time is the α-β-γ price of the model on net, in seconds — the one place
// a model's three counts meet the network's three constants. Serially it
// is γ·MaxFlops + β·MaxRecv + α·MaxMsgs; with overlap (§7.3) communication
// and computation hide each other: max(γ·MaxFlops, β·MaxRecv + α·MaxMsgs).
// Cross-algorithm comparisons pass overlap = false: charging the two
// serially is conservative and identical for every algorithm; Figure 12
// quantifies the overlap gain separately. The zero NetworkParams prices
// every model at 0.
func (mod Model) Time(net machine.NetworkParams, overlap bool) float64 {
	if overlap {
		return math.Max(net.Gamma*mod.MaxFlops, net.Beta*mod.MaxRecv+net.Alpha*mod.MaxMsgs)
	}
	return net.Time(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs)
}

// Report describes one executed run on the simulated machine: what it
// measured, beside the Model of the plan it ran (which names the
// algorithm, its grid and its working ranks).
type Report struct {
	P         int     // machine size
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

	// Network is the timed transport's α-β-γ constants when the run
	// executed on one; the zero value for counting-only runs, which
	// price at 0 and leave CritPathTime zero.
	Network machine.NetworkParams
	// CritPathTime is the measured critical path of the executed
	// schedule — the latest per-rank event clock — in seconds.
	CritPathTime float64
}

// NewReport assembles the Report of a finished run of plan on m. Runs on
// a timed transport also carry the measured event-clock critical path.
func NewReport(m *machine.Machine, plan *Plan) *Report {
	rep := &Report{
		P:         m.P(),
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
		rep.Network = net
		rep.CritPathTime = m.MaxTime()
	}
	return rep
}

// PredictedAsExecuted returns the Model's price on the run's network,
// overlapped for pipelined runs and serial otherwise — the number
// CritPathTime should be compared against; 0 on a counting-only run.
func (r *Report) PredictedAsExecuted() float64 { return r.Model.Time(r.Network, r.Overlap) }
