package experiments

import (
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/core"
	"cosma/internal/machine"
	"cosma/internal/workload"
)

func TestCommVolumeCOSMAWinsEverywhere(t *testing.T) {
	// The paper's headline: COSMA communicates least in ALL 12 scenarios,
	// on average and on the busiest rank.
	for _, shape := range []workload.Shape{workload.Square, workload.LargeK, workload.LargeM, workload.Flat} {
		for _, regime := range []workload.Regime{workload.StrongScaling, workload.LimitedMemory, workload.ExtraMemory} {
			for _, p := range workload.CoreCounts() {
				c := workload.Generate(shape, regime, p)
				if !feasible(c) {
					continue
				}
				var cosma algo.Model
				for i, r := range comparison() {
					plan, err := r.Plan(algo.Config{}, c.M, c.N, c.K, c.P, c.S)
					if err != nil {
						t.Fatalf("%v: %s: %v", c, r.Display, err)
					}
					mod := plan.Model
					if i == 0 {
						cosma = mod
						continue
					}
					if v, best := perUsedRecv(cosma, c.P), perUsedRecv(mod, c.P); v > best {
						t.Errorf("%v: COSMA's %s %.4g words/rank worse than %s's %s %.4g", c, cosma.Grid, v, r.Display, mod.Grid, best)
					}
					if cosma.MaxRecv > mod.MaxRecv {
						t.Errorf("%v: COSMA's %s %.4g max words worse than %s's %s %.4g", c, cosma.Grid, cosma.MaxRecv, r.Display, mod.Grid, mod.MaxRecv)
					}
				}
			}
		}
	}
}

// TestCARMASweepFitsAndPaysUpToRoot3: over the paper's sweep every C
// block of CARMA's plan holds its tile plus one outer-product pair in S,
// and on the limited-memory rows at power-of-two p — where CARMA uses
// every rank — it moves between COSMA's words and the √3 factor §6.2
// puts on its sequential schedule. The rows at p = 1000 and 9216, where
// CARMA idles p − 2^⌊log₂ p⌋ ranks, are listed.
func TestCARMASweepFitsAndPaysUpToRoot3(t *testing.T) {
	carma := slices.IndexFunc(comparison(), func(r algo.Spec) bool { return r.Name == "carma" })
	limited := 0
	for _, shape := range shapes {
		for _, regime := range regimes {
			if len(sweeps()[shape][regime]) == 0 {
				t.Errorf("%v/%v: no feasible configuration", shape, regime)
			}
			for _, c := range sweeps()[shape][regime] {
				pl, err := comparison()[carma].Plan(algo.Config{}, c.M, c.N, c.K, c.P, c.S)
				if err != nil {
					t.Fatalf("%v: %v", c.Config, err)
				}
				d := pl.Geometry
				if d.DomainM*d.DomainN+d.DomainM+d.DomainN > c.S {
					t.Errorf("%v: CARMA's %s tile %d×%d and one pair exceed S", c.Config, d, d.DomainM, d.DomainN)
				}
				if regime != workload.LimitedMemory {
					continue
				}
				ratio := perUsedRecv(c.mods[carma], c.P) / perUsedRecv(c.mods[0], c.P)
				if c.P&(c.P-1) != 0 {
					t.Logf("%v: CARMA %s idles %.1f%% of the ranks, words %.3f × COSMA's",
						c.Config, d, 100*(1-float64(d.RanksUsed)/float64(c.P)), ratio)
					continue
				}
				limited++
				if ratio < 1/1.02 || ratio > math.Sqrt(3) {
					t.Errorf("%v: CARMA %s moves %.3f × COSMA's words, outside [1/1.02, √3]", c.Config, d, ratio)
				}
			}
		}
	}
	if limited == 0 {
		t.Fatal("no limited-memory row at a power-of-two p")
	}
}

func TestPctPeakPerfectlyComputeBound(t *testing.T) {
	c := cell{Config: workload.Config{M: 10000, N: 10000, K: 5000, P: 64}}
	useful := 2.0 * 10000 * 10000 * 5000
	ideal := algo.Model{Name: "ideal", MaxFlops: useful / 64} // perfectly balanced, no traffic
	if pct := c.pctPeak(ideal); math.Abs(pct-100) > 1e-9 {
		t.Fatalf("balanced compute-only model reaches %v%% of peak, want 100", pct)
	}
	// Twice the flops on the busiest rank halves the achieved fraction.
	skewed := algo.Model{Name: "skewed", MaxFlops: 2 * useful / 64}
	if pct := c.pctPeak(skewed); math.Abs(pct-50) > 1e-9 {
		t.Fatalf("2× imbalanced model reaches %v%% of peak, want 50", pct)
	}
}

func TestMoreCommLowersPeak(t *testing.T) {
	c := cell{Config: workload.Config{M: 4096, N: 4096, K: 4096, P: 256}}
	base := algo.Model{MaxFlops: 2 * 4096 * 4096 * 4096 / 256, MaxRecv: 1e6, MaxMsgs: 10}
	heavy := base
	heavy.MaxRecv = 1e9
	if c.pctPeak(heavy) >= c.pctPeak(base) {
		t.Fatalf("heavier comm should lower %%peak: %v vs %v", c.pctPeak(heavy), c.pctPeak(base))
	}
	if timeSec(heavy) <= timeSec(base) {
		t.Fatalf("heavier comm should be slower: %v vs %v", timeSec(heavy), timeSec(base))
	}
}

func TestSplitInputOutput(t *testing.T) {
	net := machine.PizDaintNet()
	mod := algo.Model{MaxFlops: 3.68e9, MaxRecv: 3.2e8, MaxMsgs: 0}
	compute, input, output := split(net, mod, 1.6e8)
	if math.Abs(input-output) > 1e-9 {
		t.Fatalf("half output split uneven: in %v out %v", input, output)
	}
	if total := mod.Time(net, false); math.Abs(total-(compute+input+output)) > 1e-12 {
		t.Fatalf("parts %v + %v + %v are not the serial total %v", compute, input, output, total)
	}
	// Messages are charged to the input side.
	mod.MaxMsgs = 100
	if _, in, out := split(net, mod, 1.6e8); in <= input || out != output {
		t.Fatalf("100 messages moved input %v → %v, output %v → %v", input, in, output, out)
	}
}

// TestFig12OutputWithinMaxRecv: Figure 12's C share is part of the
// busiest rank's words, never more — on every row the output words are
// at most MaxRecv and input + output words are exactly MaxRecv.
func TestFig12OutputWithinMaxRecv(t *testing.T) {
	rows := 0
	for _, shape := range shapes {
		for _, p := range []int{2048, 18432} {
			c := workload.Generate(shape, workload.StrongScaling, p)
			if !feasible(c) {
				continue
			}
			pl, err := core.Plan(algo.Config{}, c.M, c.N, c.K, c.P, c.S)
			if err != nil {
				t.Fatal(err)
			}
			out, maxRecv := outputWords(*pl.Geometry), pl.Model.MaxRecv
			if in := maxRecv - out; out < 0 || out > maxRecv || in+out != maxRecv {
				t.Errorf("%v p=%d: output %v, input %v words of MaxRecv %v", shape, p, out, in, maxRecv)
			}
			rows++
		}
	}
	if rows != 8 {
		t.Fatalf("checked %d Figure 12 rows, want 8", rows)
	}
}

// TestExperimentsGolden renders every experiment under the pizdaint
// preset, as cmd/experiments does with no arguments, and compares the
// bytes with testdata/experiments.golden — every cell of every table
// the paper's figures are read off. Regenerate the file with
// `go run ./cmd/experiments > internal/experiments/testdata/experiments.golden`.
func TestExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, e := range All {
		for _, tb := range e.Tables(machine.PizDaintNet()) {
			got.WriteString(tb.String() + "\n")
		}
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gotLines), len(wantLines)) {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("rendered %d lines, golden has %d", len(gotLines), len(wantLines))
	}
}
