package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/matrix"
)

// timedReports runs every algorithm once on the timed transport for the
// given problem and returns the reports the tests assert orderings on.
func timedReports(m, n, k, p, s int, net machine.NetworkParams, seed int64) ([]*algo.Report, error) {
	rng := rand.New(rand.NewSource(seed))
	a := matrix.Random(m, k, rng)
	b := matrix.Random(k, n, rng)
	var reps []*algo.Report
	for _, r := range comparison() {
		_, rep, err := algo.Run(r.Plan, algo.Config{}, &net, a, b, p, s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.Display, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// TestTimedOrderingMatchesVolume is the cross-algorithm sanity check of
// the timed backend: on a bandwidth-dominated network, the runtime the
// event clock predicts must rank COSMA vs SUMMA vs 2.5D vs CARMA the
// same way their measured per-rank communication volumes do, on a
// Table-4-style problem (m=n=k=512, p=16, S limited to three output
// tiles per rank).
func TestTimedOrderingMatchesVolume(t *testing.T) {
	if testing.Short() {
		t.Skip("executes four 512³ multiplications")
	}
	// β dominates: a word costs 10 ns while a message costs 1 ns and a
	// flop 0.1 ps, so predicted time is essentially bandwidth × volume.
	net := machine.NetworkParams{Name: "bandwidth", Alpha: 1e-9, Beta: 1e-8, Gamma: 1e-13}
	const (
		n = 512
		p = 16
		s = 3 * n * n / p
	)
	reps, err := timedReports(n, n, n, p, s, net, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 4 {
		t.Fatalf("got %d reports", len(reps))
	}
	for _, r := range reps {
		if r.Network != "bandwidth" || r.CritPathTime <= 0 || r.PredictedTime <= 0 {
			t.Fatalf("%s: missing timing: %+v", r.Name, r)
		}
	}
	// Every strict MaxVolume inequality must be reproduced by the
	// event-clock critical path (ties in volume impose nothing).
	for _, a := range reps {
		for _, b := range reps {
			if a.MaxVolume < b.MaxVolume && a.CritPathTime >= b.CritPathTime {
				t.Errorf("%s moves fewer words than %s (%d < %d) but is not faster (%v ≥ %v)",
					a.Name, b.Name, a.MaxVolume, b.MaxVolume, a.CritPathTime, b.CritPathTime)
			}
		}
	}
	// And COSMA must be the volume winner and the time winner outright.
	byVol := append([]int(nil), 0, 1, 2, 3)
	sort.Slice(byVol, func(i, j int) bool { return reps[byVol[i]].MaxVolume < reps[byVol[j]].MaxVolume })
	if reps[byVol[0]].Name != "COSMA" {
		t.Errorf("volume winner is %s, want COSMA", reps[byVol[0]].Name)
	}
	for _, r := range reps[1:] {
		if reps[0].CritPathTime >= r.CritPathTime {
			t.Errorf("COSMA (%v) not faster than %s (%v)", reps[0].CritPathTime, r.Name, r.CritPathTime)
		}
	}
}

func TestTimeVsVolumeTable(t *testing.T) {
	tab := TimeVsVolume(machine.CommodityEthernet())
	// 3 core counts × 5 algorithms (Cannon included at every p).
	if tab.Rows() != 15 {
		t.Fatalf("timevolume has %d rows, want 15", tab.Rows())
	}
	// One COSMA row per core count.
	if tab := OverlapGain(machine.CommodityEthernet()); tab.Rows() != 3 {
		t.Fatalf("overlap has %d rows, want 3", tab.Rows())
	}
}

// TestTimedCountersMatchCounting pins the transports together: the same
// algorithm on the same problem must count identical traffic on the
// counting and timed backends — timing is an overlay, never a
// behavioral change.
func TestTimedCountersMatchCounting(t *testing.T) {
	net := machine.PizDaintNet()
	timed, err := timedReports(64, 64, 64, 8, 2048, net, 9)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	a := matrix.Random(64, 64, rng)
	b := matrix.Random(64, 64, rng)
	for i, runner := range comparison() {
		_, rep, err := algo.Run(runner.Plan, algo.Config{}, nil, a, b, 8, 2048)
		if err != nil {
			t.Fatal(err)
		}
		tr := timed[i]
		if rep.MaxVolume != tr.MaxVolume || rep.MaxRecv != tr.MaxRecv ||
			rep.Total != tr.Total || rep.MaxMsgs != tr.MaxMsgs {
			t.Errorf("%s: counting %+v vs timed %+v traffic differs", rep.Name, rep, tr)
		}
	}
}
