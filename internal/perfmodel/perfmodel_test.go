package perfmodel

import (
	"math"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/machine"
)

// TestEvaluateIsTheNetworksOwnSum pins the one-evaluator rule: on flat,
// latency-heavy and hierarchical networks, with overlap off and on,
// TimeSec is bit for bit what the network's own Time/TimeOverlap return
// for the model's counts — the timed transport's prediction — and the
// compute and communication parts are the same function with the other
// counts zeroed.
func TestEvaluateIsTheNetworksOwnSum(t *testing.T) {
	pizdaint := machine.PizDaintNet()
	nets := []machine.NetworkParams{
		pizdaint,
		machine.CommodityEthernet(),
		machine.Hierarchical(machine.SharedMemory(), pizdaint, 4, 2),
	}
	mods := []algo.Model{
		{Name: "compute-bound", MaxFlops: 2 * 4096 * 4096 * 4096 / 256, MaxRecv: 1e6, MaxMsgs: 10, AvgRecv: 9e5},
		{Name: "bandwidth-bound", MaxFlops: 3.3e7, MaxRecv: 98304, MaxMsgs: 12, AvgRecv: 81920},
		{Name: "latency-bound", MaxFlops: 1e5, MaxRecv: 512, MaxMsgs: 4000, AvgRecv: 512},
	}
	for _, net := range nets {
		for _, mod := range mods {
			f, w, l := mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs
			serial := Evaluate(net, false, mod, 4096, 4096, 4096, 256)
			if want := net.Time(f, w, l); serial.TimeSec != want {
				t.Errorf("%s/%s: TimeSec %v, net.Time %v", net.Name, mod.Name, serial.TimeSec, want)
			}
			if serial.ComputeSec != net.Time(f, 0, 0) || serial.CommSec != net.Time(0, w, l) {
				t.Errorf("%s/%s: parts %v + %v are not net.Time(f,0,0), net.Time(0,w,l)",
					net.Name, mod.Name, serial.ComputeSec, serial.CommSec)
			}
			// Same terms, summed in a different order than net.Time's:
			// equal to the last bit or two, not necessarily bitwise.
			if sum := serial.ComputeSec + serial.CommSec; math.Abs(sum-serial.TimeSec) > 1e-15*serial.TimeSec {
				t.Errorf("%s/%s: compute %v + comm %v = %v, TimeSec %v",
					net.Name, mod.Name, serial.ComputeSec, serial.CommSec, sum, serial.TimeSec)
			}
			over := Evaluate(net, true, mod, 4096, 4096, 4096, 256)
			if want := net.TimeOverlap(f, w, l); over.TimeSec != want {
				t.Errorf("%s/%s: overlapped TimeSec %v, net.TimeOverlap %v", net.Name, mod.Name, over.TimeSec, want)
			}
			if over.TimeSec != math.Max(over.ComputeSec, over.CommSec) {
				t.Errorf("%s/%s: overlapped TimeSec %v is not max(%v, %v)",
					net.Name, mod.Name, over.TimeSec, over.ComputeSec, over.CommSec)
			}
			if serial.CommWords != w || serial.CommPerRank != mod.AvgRecv || serial.Name != mod.Name {
				t.Errorf("%s/%s: model fields not carried through: %+v", net.Name, mod.Name, serial)
			}
		}
	}
}

func TestTimeOverlapVsSerial(t *testing.T) {
	net := machine.NetworkParams{Gamma: 1e-9, Beta: 1e-8, Alpha: 1e-6}
	mod := algo.Model{MaxFlops: 2e9, MaxRecv: 1e8} // 2 s compute, 1 s comm
	if got := Evaluate(net, true, mod, 1000, 1000, 1000, 1).TimeSec; got != 2 {
		t.Fatalf("overlap time = %v, want 2", got)
	}
	if got := Evaluate(net, false, mod, 1000, 1000, 1000, 1).TimeSec; got != 3 {
		t.Fatalf("serial time = %v, want 3", got)
	}
}

func TestTimeLatencyTerm(t *testing.T) {
	net := machine.NetworkParams{Gamma: 1e-9, Beta: 1e-8, Alpha: 1e-3}
	res := Evaluate(net, false, algo.Model{MaxMsgs: 1000}, 1, 1, 1, 1)
	if math.Abs(res.TimeSec-1) > 1e-12 || res.CommSec != res.TimeSec || res.ComputeSec != 0 {
		t.Fatalf("latency-only evaluation %+v, want 1 s of communication", res)
	}
}

func TestEvaluatePctPeakPerfectlyComputeBound(t *testing.T) {
	net := machine.PizDaintNet()
	const m, n, k, p = 10000, 10000, 5000, 64
	useful := 2.0 * m * n * k
	ideal := algo.Model{Name: "ideal", MaxFlops: useful / p} // perfectly balanced, no traffic
	if res := Evaluate(net, false, ideal, m, n, k, p); math.Abs(res.PctPeak-100) > 1e-9 {
		t.Fatalf("balanced compute-only model reaches %v%% of peak, want 100", res.PctPeak)
	}
	// Twice the flops on the busiest rank halves the achieved fraction.
	skewed := algo.Model{Name: "skewed", MaxFlops: 2 * useful / p}
	if res := Evaluate(net, false, skewed, m, n, k, p); math.Abs(res.PctPeak-50) > 1e-9 {
		t.Fatalf("2× imbalanced model reaches %v%% of peak, want 50", res.PctPeak)
	}
}

func TestEvaluateMoreCommLowersPeak(t *testing.T) {
	net := machine.PizDaintNet()
	m, n, k, p := 4096, 4096, 4096, 256
	base := algo.Model{MaxFlops: 2 * 4096 * 4096 * 4096 / 256, MaxRecv: 1e6, MaxMsgs: 10}
	heavy := base
	heavy.MaxRecv = 1e9
	r1 := Evaluate(net, false, base, m, n, k, p)
	r2 := Evaluate(net, false, heavy, m, n, k, p)
	if r2.PctPeak >= r1.PctPeak {
		t.Fatalf("heavier comm should lower %%peak: %v vs %v", r2.PctPeak, r1.PctPeak)
	}
	if r2.TimeSec <= r1.TimeSec {
		t.Fatalf("heavier comm should be slower: %v vs %v", r2.TimeSec, r1.TimeSec)
	}
}

// TestEvaluateCalibratedGamma: a measured compute rate reaches the
// tables through NetworkParams.WithGamma alone — compute time scales,
// communication time does not move.
func TestEvaluateCalibratedGamma(t *testing.T) {
	base := machine.PizDaintNet()
	cal := base.WithGamma(1 / 3.4e9) // a measured Go-kernel rate
	mod := algo.Model{MaxFlops: 1e9, MaxRecv: 1e6, MaxMsgs: 10}
	rb := Evaluate(base, false, mod, 1000, 1000, 500, 1)
	rc := Evaluate(cal, false, mod, 1000, 1000, 500, 1)
	if rc.CommSec != rb.CommSec {
		t.Fatalf("calibrating γ moved communication time: %v vs %v", rc.CommSec, rb.CommSec)
	}
	if rc.ComputeSec <= rb.ComputeSec || rc.TimeSec <= rb.TimeSec {
		t.Fatalf("slower calibrated γ did not raise the time: %+v vs %+v", rc, rb)
	}
}

func TestSplitInputOutput(t *testing.T) {
	net := machine.PizDaintNet()
	mod := algo.Model{MaxFlops: 3.68e9, MaxRecv: 3.2e8, MaxMsgs: 0}
	bd := SplitInputOutput(net, mod, 1.6e8)
	if math.Abs(bd.InputSec-bd.OutputSec) > 1e-9 {
		t.Fatalf("half output split uneven: in %v out %v", bd.InputSec, bd.OutputSec)
	}
	if math.Abs(bd.TotalNoOv-(bd.ComputeSec+bd.InputSec+bd.OutputSec)) > 1e-12 {
		t.Fatal("no-overlap total inconsistent")
	}
	if bd.TotalNoOv != net.Time(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs) ||
		bd.TotalOv != net.TimeOverlap(mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs) {
		t.Fatalf("totals %v / %v are not the network's own evaluation", bd.TotalNoOv, bd.TotalOv)
	}
	if bd.TotalOv > bd.TotalNoOv {
		t.Fatal("overlap must not be slower than serial")
	}
	// Messages are charged to the input side.
	mod.MaxMsgs = 100
	if with := SplitInputOutput(net, mod, 1.6e8); with.InputSec <= bd.InputSec || with.OutputSec != bd.OutputSec {
		t.Fatalf("100 messages moved input %v → %v, output %v → %v",
			bd.InputSec, with.InputSec, bd.OutputSec, with.OutputSec)
	}
	// Clamp: more output than total traffic.
	mod.MaxMsgs = 0
	bd2 := SplitInputOutput(net, mod, 1e12)
	if bd2.InputSec != 0 {
		t.Fatalf("clamped input time %v, want 0", bd2.InputSec)
	}
}

func TestEvaluatePanicsOnBadRanks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Evaluate(machine.PizDaintNet(), false, algo.Model{}, 1, 1, 1, 0)
}
