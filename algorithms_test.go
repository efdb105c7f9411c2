package cosma

import (
	"context"
	"strings"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/baselines"
)

// TestEveryAlgorithmFillsItsPlan holds every row of the table of
// algorithms to what the Plan interface and its three optional interfaces
// used to make the compiler check: the plan carries the row's display
// name, its numbers and an Execute; the Algorithm 1 policies — and only
// they — publish a geometry and gather their result, so a wire engine
// refuses the other two at Plan; names and aliases are unique and resolve
// case-insensitively.
func TestEveryAlgorithmFillsItsPlan(t *testing.T) {
	const n, p, s = 64, 4, 1 << 16
	algorithm1 := map[string]bool{"cosma": true, "summa": true, "2.5d": true}
	seen := map[string]bool{}
	for _, row := range baselines.Algorithms {
		for _, key := range append([]string{row.Name}, row.Aliases...) {
			if seen[strings.ToLower(key)] {
				t.Errorf("%s: key %q is in the table twice", row.Name, key)
			}
			seen[strings.ToLower(key)] = true
			if got, err := baselines.Lookup(strings.ToUpper(key)); err != nil || got.Name != row.Name {
				t.Errorf("Lookup(%q) = %q, %v; want %q", strings.ToUpper(key), got.Name, err, row.Name)
			}
		}
		pl, err := row.Plan(algo.Config{}, n, n, n, p, s)
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		if pl.Name != row.Display || pl.Grid == "" || pl.Used < 1 || pl.Used > p ||
			pl.M != n || pl.N != n || pl.K != n || pl.P != p || pl.Execute == nil {
			t.Errorf("%s: plan %+v is not filled in for %d³ on p=%d under %q", row.Name, pl, n, p, row.Display)
		}
		if want := algorithm1[row.Name]; (pl.Geometry != nil) != want || pl.Distributed != want {
			t.Errorf("%s: geometry %v, distributed %v; want both %v", row.Name, pl.Geometry, pl.Distributed, want)
		}

		addr := WireSocketAddrs(t.TempDir(), 1)[0]
		peers := []string{addr, addr, addr, addr} // one process hosts all p ranks
		eng, err := NewEngine(WithAlgorithm(row.Name), WithMemory(s), WithWireTransport(WireConfig{Rank: 0, Peers: peers}))
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		if eng.Algorithm() != row.Display {
			t.Errorf("%s: engine names its algorithm %q, want %q", row.Name, eng.Algorithm(), row.Display)
		}
		if _, err := eng.Plan(context.Background(), n, n, n); (err == nil) != algorithm1[row.Name] {
			t.Errorf("%s on a wire engine: Plan error %v, want planned = %v", row.Name, err, algorithm1[row.Name])
		}
		eng.Close()
	}
}

// TestOnePrice: a report's two predictions and Engine.Predict's two times
// are Model.Time of the same model on the same network, to the bit.
func TestOnePrice(t *testing.T) {
	const n = 128
	net := PizDaintNetwork()
	eng, err := NewEngine(WithProcs(16), WithMemory(1<<12), WithNetwork(net))
	if err != nil {
		t.Fatal(err)
	}
	_, rep, err := eng.Exec(context.Background(), RandomMatrix(n, n, 1), RandomMatrix(n, n, 2))
	if err != nil {
		t.Fatal(err)
	}
	serial, overlap := rep.Model.Time(net, false), rep.Model.Time(net, true)
	if rep.PredictedTime != serial || rep.PredictedOverlapTime != overlap || serial <= 0 || overlap > serial {
		t.Errorf("report predicts %v / %v, its model prices at %v / %v", rep.PredictedTime, rep.PredictedOverlapTime, serial, overlap)
	}
	pred, err := eng.Predict(context.Background(), n, n, n)
	if err != nil {
		t.Fatal(err)
	}
	if pred.SerialTime != serial || pred.OverlapTime != overlap {
		t.Errorf("Predict says %v / %v, the run's model prices at %v / %v", pred.SerialTime, pred.OverlapTime, serial, overlap)
	}
}
