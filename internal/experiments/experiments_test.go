package experiments

import (
	"strconv"
	"strings"
	"testing"

	"cosma/internal/algo"
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
				for i, r := range algo.Comparison(algo.Config{}) {
					plan, err := r.Plan(c.M, c.N, c.K, c.P, c.S)
					if err != nil {
						t.Fatalf("%v: %s: %v", c, r.Name(), err)
					}
					v := perUsedRecv(plan.Model(), c.P)
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
