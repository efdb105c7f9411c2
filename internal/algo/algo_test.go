package algo

import (
	"math"
	"testing"

	"cosma/internal/machine"
)

// TestModelTimeIsTheNetworksOwnSum pins the one-evaluator rule: on a
// bandwidth-heavy and a latency-heavy network, with overlap off and on,
// Model.Time serially is bit for bit the network's own Time of the
// model's counts, and overlapped the larger of its compute and
// communication terms — the timed transport's prediction.
func TestModelTimeIsTheNetworksOwnSum(t *testing.T) {
	nets := []machine.NetworkParams{machine.PizDaintNet(), machine.CommodityEthernet()}
	mods := []Model{
		{Name: "compute-bound", MaxFlops: 2 * 4096 * 4096 * 4096 / 256, MaxRecv: 1e6, MaxMsgs: 10, AvgRecv: 9e5},
		{Name: "bandwidth-bound", MaxFlops: 3.3e7, MaxRecv: 98304, MaxMsgs: 12, AvgRecv: 81920},
		{Name: "latency-bound", MaxFlops: 1e5, MaxRecv: 512, MaxMsgs: 4000, AvgRecv: 512},
	}
	for _, net := range nets {
		for _, mod := range mods {
			f, w, l := mod.MaxFlops, mod.MaxRecv, mod.MaxMsgs
			serial, over := mod.Time(net, false), mod.Time(net, true)
			if want := net.Time(f, w, l); serial != want {
				t.Errorf("%s/%s: Time %v, net.Time %v", net.Name, mod.Name, serial, want)
			}
			if compute, comm := net.Time(f, 0, 0), net.Time(0, w, l); over != math.Max(compute, comm) {
				t.Errorf("%s/%s: overlapped Time %v is not max(%v, %v)", net.Name, mod.Name, over, compute, comm)
			}
		}
	}
}

func TestModelTimeSerialVsOverlap(t *testing.T) {
	net := machine.NetworkParams{Gamma: 1e-9, Beta: 1e-8, Alpha: 1e-6}
	mod := Model{MaxFlops: 2e9, MaxRecv: 1e8} // 2 s compute, 1 s comm
	if got := mod.Time(net, true); got != 2 {
		t.Fatalf("overlap time = %v, want 2", got)
	}
	if got := mod.Time(net, false); got != 3 {
		t.Fatalf("serial time = %v, want 3", got)
	}
	if got := mod.Time(machine.NetworkParams{}, true) + mod.Time(machine.NetworkParams{}, false); got != 0 {
		t.Fatalf("the zero network prices at %v, want 0", got)
	}
}

func TestTimeLatencyTerm(t *testing.T) {
	net := machine.NetworkParams{Gamma: 1e-9, Beta: 1e-8, Alpha: 1e-3}
	if got := (Model{MaxMsgs: 1000}).Time(net, false); math.Abs(got-1) > 1e-12 {
		t.Fatalf("latency-only model priced at %v s, want 1 s of communication", got)
	}
}

// TestModelTimeCalibratedGamma: a measured compute rate reaches the
// price through NetworkParams.WithGamma alone — compute time scales,
// communication time does not move.
func TestModelTimeCalibratedGamma(t *testing.T) {
	base := machine.PizDaintNet()
	cal := base.WithGamma(1 / 3.4e9) // a measured Go-kernel rate
	comm := Model{MaxRecv: 1e6, MaxMsgs: 10}
	if comm.Time(cal, false) != comm.Time(base, false) {
		t.Fatalf("calibrating γ moved communication time: %v vs %v", comm.Time(cal, false), comm.Time(base, false))
	}
	mod := comm
	mod.MaxFlops = 1e9
	if mod.Time(cal, false) <= mod.Time(base, false) {
		t.Fatalf("slower calibrated γ did not raise the time: %v vs %v", mod.Time(cal, false), mod.Time(base, false))
	}
}
