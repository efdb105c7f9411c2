package cosma

import (
	"context"
	"slices"
	"strings"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/baselines"
)

// TestEveryAlgorithmFillsItsPlan holds every row of the table of
// algorithms to what the Plan interface and its three optional interfaces
// used to make the compiler check: the plan carries the row's display
// name, its numbers, its geometry and an Execute; every row plans and
// executes on a wire engine, to the in-process product's bits; names
// and aliases are unique and resolve case-insensitively.
func TestEveryAlgorithmFillsItsPlan(t *testing.T) {
	const n, p, s = 64, 4, 1 << 16
	a, b := RandomMatrix(n, n, 1), RandomMatrix(n, n, 2)
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
			pl.M != n || pl.N != n || pl.K != n || pl.P != p || pl.Execute == nil ||
			pl.Geometry.RanksUsed != pl.Used || pl.Geometry.Rounds < 1 ||
			pl.Geometry.StepSize < 1 || pl.Geometry.StepSize > pl.Geometry.DomainK {
			t.Errorf("%s: plan %+v is not filled in for %d³ on p=%d under %q", row.Name, pl, n, p, row.Display)
		}
		want, _, err := algo.Run(row.Plan, algo.Config{}, nil, a, b, p, s)
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}

		addr := WireSocketAddrs(t.TempDir(), 1)[0]
		peers := []string{addr, addr, addr, addr} // one process hosts all p ranks
		eng, err := NewEngine(WithAlgorithm(row.Name), WithMemory(s), WithWireTransport(WireConfig{Rank: 0, Peers: peers}))
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		plan, err := eng.Plan(context.Background(), n, n, n)
		if err != nil {
			t.Fatalf("%s on a wire engine: %v", row.Name, err)
		}
		if plan.Algorithm() != row.Display {
			t.Errorf("%s: wire plan names its algorithm %q, want %q", row.Name, plan.Algorithm(), row.Display)
		}
		got, _, err := eng.Exec(context.Background(), a, b)
		if err != nil {
			t.Fatalf("%s on a wire engine: %v", row.Name, err)
		}
		if !slices.Equal(got.Data, want.Data) {
			t.Errorf("%s: the wire product differs from the in-process one", row.Name)
		}
		eng.Close()
	}
}

// TestOnePrice: for every algorithm, on a timed and on a counting engine,
// a report's prediction is Model.Time of its plan's model on the run's
// network, to the bit — and 0 on the counting engine, whose Network is
// the zero value.
func TestOnePrice(t *testing.T) {
	const n = 128
	net := PizDaintNetwork()
	a, b := RandomMatrix(n, n, 1), RandomMatrix(n, n, 2)
	for _, name := range Algorithms() {
		for _, timed := range []bool{true, false} {
			opts := []Option{WithAlgorithm(name), WithProcs(16), WithMemory(1 << 12)}
			if timed {
				opts = append(opts, WithNetwork(net))
			}
			eng, err := NewEngine(opts...)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := eng.Plan(context.Background(), n, n, n)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			_, rep, err := eng.Exec(context.Background(), a, b)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if rep.Model != plan.Model() {
				t.Errorf("%s timed=%v: report model %+v, plan model %+v", name, timed, rep.Model, plan.Model())
			}
			got, want := rep.PredictedAsExecuted(), rep.Model.Time(rep.Network, rep.Overlap)
			if got != want {
				t.Errorf("%s timed=%v: report predicts %v, its model prices at %v", name, timed, got, want)
			}
			if timed && (rep.Network != net || got <= 0) {
				t.Errorf("%s: timed report on %+v predicts %v", name, rep.Network, got)
			}
			if !timed && (rep.Network != NetworkParams{} || got != 0 || rep.CritPathTime != 0) {
				t.Errorf("%s: counting report on %+v predicts %v, critical path %v", name, rep.Network, got, rep.CritPathTime)
			}
		}
	}
}
