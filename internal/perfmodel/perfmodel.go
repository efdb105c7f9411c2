package perfmodel

import (
	"fmt"

	"cosma/internal/algo"
	"cosma/internal/machine"
)

// Result describes one algorithm's predicted execution.
type Result struct {
	Name        string
	TimeSec     float64
	PctPeak     float64 // % of aggregate machine peak achieved
	ComputeSec  float64
	CommSec     float64
	CommWords   float64 // critical-path received words
	CommPerRank float64 // average received words per rank
}

// Evaluate predicts the execution of a model on p ranks of net for an
// m×n×k multiplication: total useful work 2mnk flops, critical path set
// by the busiest rank. TimeSec is net.Time of the model's counts, or
// net.TimeOverlap when overlap is set (§7.3). Cross-algorithm
// comparisons pass overlap = false: charging communication and
// computation serially is conservative and identical for every
// algorithm; Figure 12 quantifies the overlap gain separately.
func Evaluate(net machine.NetworkParams, overlap bool, mod algo.Model, m, n, k, p int) Result {
	if p < 1 {
		panic(fmt.Sprintf("perfmodel: p = %d", p))
	}
	t := net.Time(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs)
	if overlap {
		t = net.TimeOverlap(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs)
	}
	// % of peak = the time p ranks at peak need for the useful work,
	// over the predicted time.
	useful := 2 * float64(m) * float64(n) * float64(k)
	return Result{
		Name:        mod.Name,
		TimeSec:     t,
		PctPeak:     100 * net.Time(useful/float64(p), 0, 0) / t,
		ComputeSec:  net.Time(mod.MaxFlops, 0, 0),
		CommSec:     net.Time(0, mod.MaxRecv, mod.MaxMsgs),
		CommWords:   mod.MaxRecv,
		CommPerRank: mod.AvgRecv,
	}
}

// Breakdown splits a model's predicted time into the Figure 12
// categories: computation, input (A and B) communication, and output (C)
// communication, for both overlap settings.
type Breakdown struct {
	ComputeSec float64
	InputSec   float64 // sending/receiving A and B panels
	OutputSec  float64 // reducing/sending C
	TotalNoOv  float64 // total without communication–computation overlap
	TotalOv    float64 // total with overlap (§7.3)
}

// SplitInputOutput estimates the Figure 12 breakdown assuming the output
// traffic is outWords of the model's MaxRecv words; the messages are
// charged to the input side.
func SplitInputOutput(net machine.NetworkParams, mod algo.Model, outWords float64) Breakdown {
	if outWords > mod.MaxRecv {
		outWords = mod.MaxRecv
	}
	return Breakdown{
		ComputeSec: net.Time(mod.MaxFlops, 0, 0),
		InputSec:   net.Time(0, mod.MaxRecv-outWords, mod.MaxMsgs),
		OutputSec:  net.Time(0, outWords, 0),
		TotalNoOv:  net.Time(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs),
		TotalOv:    net.TimeOverlap(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs),
	}
}
