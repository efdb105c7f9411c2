package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/baselines"
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
	for _, r := range baselines.Algorithms {
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
		if r.Network != net || r.CritPathTime <= 0 || r.PredictedAsExecuted() <= 0 {
			t.Fatalf("%s: missing timing: %+v", r.Model.Name, r)
		}
	}
	// Every strict MaxVolume inequality must be reproduced by the
	// event-clock critical path (ties in volume impose nothing).
	for _, a := range reps {
		for _, b := range reps {
			if a.MaxVolume < b.MaxVolume && a.CritPathTime >= b.CritPathTime {
				t.Errorf("%s moves fewer words than %s (%d < %d) but is not faster (%v ≥ %v)",
					a.Model.Name, b.Model.Name, a.MaxVolume, b.MaxVolume, a.CritPathTime, b.CritPathTime)
			}
		}
	}
	// And no algorithm may move fewer words than COSMA (CARMA's [4×2×2]
	// ties its [2×4×2]), and COSMA must be the time winner outright.
	for _, r := range reps[1:] {
		if r.MaxVolume < reps[0].MaxVolume {
			t.Errorf("%s moves fewer words than COSMA (%d < %d)", r.Model.Name, r.MaxVolume, reps[0].MaxVolume)
		}
	}
	for _, r := range reps[1:] {
		if reps[0].CritPathTime >= r.CritPathTime {
			t.Errorf("COSMA (%v) not faster than %s (%v)", reps[0].CritPathTime, r.Model.Name, r.CritPathTime)
		}
	}
}

// TestOverlapGainShowsAGain keeps Figure 12 a figure about overlap: at
// the S the table runs at, every row's plan has room for the second
// panel pair, so on the default network every measured gain, as
// printed, exceeds 1.00×.
func TestOverlapGainShowsAGain(t *testing.T) {
	rows := strings.Split(strings.TrimSpace(OverlapGain(machine.PizDaintNet()).CSV()), "\n")
	col := slices.Index(strings.Split(rows[0], ","), "measured gain")
	for _, row := range rows[1:] {
		cell := strings.Split(row, ",")[col]
		gain, err := strconv.ParseFloat(strings.TrimSuffix(cell, "×"), 64)
		if err != nil || gain <= 1.00 {
			t.Errorf("row %q measures gain %q, want > 1.00×", row, cell)
		}
	}
}
