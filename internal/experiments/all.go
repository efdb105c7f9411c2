package experiments

import (
	"strings"

	"cosma/internal/baselines"
	"cosma/internal/machine"
	"cosma/internal/report"
	"cosma/internal/workload"
)

// Experiment is one named entry of cmd/experiments: the tables it renders
// on net (only the timed experiments read it).
type Experiment struct {
	Name   string
	Tables func(net machine.NetworkParams) []*report.Table
}

// All lists every experiment in the order cmd/experiments prints them.
// testdata/experiments.golden is this table rendered under the pizdaint
// preset; regenerate it with `go run ./cmd/experiments > <that file>`.
var All = []Experiment{
	{"table1", fixed(Table1)},
	{"fig3", fixed(Fig3)},
	{"seqio", fixed(SeqIO)},
	{"fig5", fixed(Fig5)},
	{"table3", func(machine.NetworkParams) []*report.Table { return Table3() }},
	{"fig6", perRegime(CommVolume, workload.Square)},
	{"fig7", func(net machine.NetworkParams) []*report.Table {
		// The symmetric largeM and the flat cases of Table 4's sweep follow.
		return append(perRegime(CommVolume, workload.LargeK)(net),
			CommVolume(workload.LargeM, workload.StrongScaling),
			CommVolume(workload.Flat, workload.StrongScaling))
	}},
	{"fig8", perRegime(PctPeak, workload.Square)},
	{"fig9", perRegime(Runtime, workload.Square)},
	{"fig10", perRegime(PctPeak, workload.LargeK)},
	{"fig11", perRegime(Runtime, workload.LargeK)},
	{"fig12", fixed(Fig12)},
	{"fig13", fixed(Fig13)},
	{"table4", fixed(Table4)},
	{"unfavorable", fixed(Unfavorable)},
	{"validate", fixed(Validate)},
	{"iolatency", fixed(IOLatency)},
	{"delta", fixed(DeltaAblation)},
	{"step", fixed(StepAblation)},
	{"timevolume", func(net machine.NetworkParams) []*report.Table { return []*report.Table{TimeVsVolume(net)} }},
	{"overlap", func(net machine.NetworkParams) []*report.Table { return []*report.Table{OverlapGain(net)} }},
	{"algos", fixed(algorithms)},
}

// fixed adapts an experiment that renders one table and reads no network.
func fixed(table func() *report.Table) func(machine.NetworkParams) []*report.Table {
	return func(machine.NetworkParams) []*report.Table { return []*report.Table{table()} }
}

// perRegime renders one panel of shape per regime of the sweep.
func perRegime(panel func(workload.Shape, workload.Regime) *report.Table, shape workload.Shape) func(machine.NetworkParams) []*report.Table {
	return func(machine.NetworkParams) []*report.Table {
		var ts []*report.Table
		for _, r := range regimes {
			ts = append(ts, panel(shape, r))
		}
		return ts
	}
}

// algorithms lists the table of algorithms, the paper's comparison set.
func algorithms() *report.Table {
	t := report.NewTable("registered algorithms", "name", "aliases", "summary")
	for _, s := range baselines.Algorithms {
		t.AddRow(s.Name, strings.Join(s.Aliases, ", "), s.Summary)
	}
	return t
}
