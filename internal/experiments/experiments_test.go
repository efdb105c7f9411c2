package experiments

import (
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/machine"
	"cosma/internal/workload"
)

func TestCommVolumeCOSMAWinsEverywhere(t *testing.T) {
	// The paper's headline: COSMA communicates least in ALL 12 scenarios.
	for _, shape := range []workload.Shape{workload.Square, workload.LargeK, workload.LargeM, workload.Flat} {
		for _, regime := range []workload.Regime{workload.StrongScaling, workload.LimitedMemory, workload.ExtraMemory} {
			for _, p := range workload.CoreCounts() {
				c := workload.Generate(shape, regime, p)
				if !feasible(c) {
					continue
				}
				var cosma float64
				best := -1.0
				for i, r := range comparison() {
					plan, err := r.Plan(algo.Config{}, c.M, c.N, c.K, c.P, c.S)
					if err != nil {
						t.Fatalf("%v: %s: %v", c, r.Display, err)
					}
					v := perUsedRecv(plan.Model, c.P)
					if i == 0 {
						cosma = v
						continue
					}
					if best < 0 || v < best {
						best = v
					}
				}
				if cosma > best*1.02 {
					t.Errorf("%v: COSMA %.3g words/rank worse than best baseline %.3g", c, cosma, best)
				}
			}
		}
	}
}

func TestCommVolumeTablesNonEmpty(t *testing.T) {
	for _, shape := range []workload.Shape{workload.Square, workload.LargeK, workload.LargeM, workload.Flat} {
		for _, regime := range []workload.Regime{workload.StrongScaling, workload.LimitedMemory, workload.ExtraMemory} {
			tb := CommVolume(shape, regime)
			if tb.Rows() == 0 {
				t.Errorf("%v/%v: empty table", shape, regime)
			}
		}
	}
}

func TestTable4CompleteAndCOSMAWins(t *testing.T) {
	tb := Table4()
	if tb.Rows() != 12 {
		t.Fatalf("Table 4 has %d rows, want 12", tb.Rows())
	}
	out := tb.String()
	if !strings.Contains(out, "square") || !strings.Contains(out, "largeK") {
		t.Fatalf("missing shapes:\n%s", out)
	}
}

func TestTable3HasThreeTables(t *testing.T) {
	tabs := Table3()
	if len(tabs) != 3 {
		t.Fatalf("Table3 returned %d tables", len(tabs))
	}
	for _, tb := range tabs {
		if tb.Rows() != 4 {
			t.Fatalf("table %q has %d rows", tb.Title, tb.Rows())
		}
	}
}

func TestFig3ShowsReduction(t *testing.T) {
	out := Fig3().String()
	if !strings.Contains(out, "COSMA") || !strings.Contains(out, "3D") {
		t.Fatalf("Fig3 table malformed:\n%s", out)
	}
}

func TestFig5ShowsIdleRankWin(t *testing.T) {
	tb := Fig5()
	if tb.Rows() != 2 {
		t.Fatalf("Fig5 rows = %d", tb.Rows())
	}
	if !strings.Contains(tb.String(), "4×4×4") {
		t.Fatalf("Fig5 should fit [4×4×4]:\n%s", tb.String())
	}
}

func TestSeqIORatiosApproachOne(t *testing.T) {
	tb := SeqIO()
	if tb.Rows() != 5 {
		t.Fatalf("SeqIO rows = %d", tb.Rows())
	}
}

func TestFig12AndFig13NonEmpty(t *testing.T) {
	if Fig12().Rows() == 0 {
		t.Fatal("Fig12 empty")
	}
	if Fig13().Rows() == 0 {
		t.Fatal("Fig13 empty")
	}
}

func TestUnfavorableStability(t *testing.T) {
	tb := Unfavorable()
	if tb.Rows() != 8 {
		t.Fatalf("Unfavorable rows = %d, want 8 (4 algos × 2 p)", tb.Rows())
	}
}

func TestValidateModelsAccurate(t *testing.T) {
	tb := Validate()
	if tb.Rows() < 12 {
		t.Fatalf("Validate rows = %d", tb.Rows())
	}
	// Parse the ratio column from CSV: the three grid policies' models are
	// counts of their schedule, so measured ÷ model is exactly 1; CARMA's
	// closed form must be within [0.2, 3.5].
	lines := strings.Split(strings.TrimSpace(tb.CSV()), "\n")
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad ratio %q", fields[len(fields)-1])
		}
		if v < 0.2 || v > 3.5 {
			t.Errorf("model far from measurement: %s", line)
		}
		if !strings.HasPrefix(fields[0], "CARMA") && v != 1 {
			t.Errorf("counted model differs from measurement: %s", line)
		}
	}
}

func TestTable1FourRows(t *testing.T) {
	if got := Table1().Rows(); got != 4 {
		t.Fatalf("Table1 rows = %d", got)
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
	// Clamp: more output than total traffic.
	mod.MaxMsgs = 0
	if _, in, _ := split(net, mod, 1e12); in != 0 {
		t.Fatalf("clamped input time %v, want 0", in)
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
