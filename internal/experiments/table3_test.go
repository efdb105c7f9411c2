package experiments

import (
	"math"
	"testing"

	"cosma/internal/bound"
	"cosma/internal/workload"
)

func TestSquareLimitedRegime(t *testing.T) {
	// Table 3, square limited-memory case: 2D, 2.5D and COSMA achieve
	// ~2n²(√p+1)/p; the recursive decomposition is worse by ~√3/…
	n, p := 1<<12, 1<<6
	want := 2 * float64(n) * float64(n) * (math.Sqrt(float64(p)) + 1) / float64(p)
	byName := byAlgorithm(squareLimited(n, p))
	// 2D and COSMA both land on Θ(n²/√p) with constants within the
	// √2 presentational slack of the Table 3 special-case row.
	for _, name := range []string{"2D", "COSMA"} {
		got := byName[name].q
		if got < 0.5*want || got > 1.3*want {
			t.Fatalf("%s: Q = %v, want ≈ %v", name, got, want)
		}
	}
	if rec := byName["recursive"].q; rec <= byName["COSMA"].q {
		t.Fatalf("recursive Q %v should exceed COSMA %v in limited memory", rec, byName["COSMA"].q)
	}
	ratio := byName["recursive"].q / byName["COSMA"].q
	if ratio < 1.2 || ratio > 2.2 {
		t.Fatalf("recursive/COSMA ratio %v, paper predicts ≈ √3·…", ratio)
	}
}

func TestTallExtraRegime(t *testing.T) {
	// Table 3, tall case with extra memory: COSMA and recursive are both
	// Θ(p) and close (the paper's exact constants are 0.69p vs 0.75p);
	// 2.5D is Θ(p^{4/3}) and 2D Θ(p^{3/2}) — orders of magnitude worse.
	byName := byAlgorithm(tallExtra(1 << 12))
	cosma := byName["COSMA"].q
	if r := byName["recursive"].q / cosma; r < 0.9 || r > 1.3 {
		t.Fatalf("recursive/COSMA = %v, paper predicts ≈ 1.08", r)
	}
	if r := byName["2.5D"].q / cosma; r < 2 {
		t.Fatalf("2.5D/COSMA = %v, should be Θ(p^(1/3))-ish ≫ 1", r)
	}
	if r := byName["2D"].q / cosma; r < 10 {
		t.Fatalf("2D/COSMA = %v, should be Θ(√p)-ish ≫ 1", r)
	}
	// Ordering: 2D worst, then 2.5D, then recursive, then COSMA.
	if !(byName["2D"].q > byName["2.5D"].q && byName["2.5D"].q > byName["recursive"].q) {
		t.Fatalf("ordering broken: %+v", byName)
	}
}

func TestCOSMAMatchesTheorem2(t *testing.T) {
	// In the cubic (ample-memory) regime COSMA's attainable Q equals the
	// Theorem 2 bound exactly; in every regime it is at least the bound.
	// The second check cannot fail on S: bound.ParallelLowerBound as coded
	// is 3(mnk/p)^(2/3) for every S (AM-GM, see its doc comment), while
	// COSMA's Q case-splits on Eq. 32's domain — ROADMAP item 3(a).
	extra := workload.Config{M: 4096, N: 4096, K: 4096, P: 64, S: 1 << 25}
	got := cosmaForm(extra).q
	want := bound.ParallelLowerBound(extra.M, extra.N, extra.K, extra.P, extra.S)
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("COSMA Q %v != Theorem 2 bound %v in cubic regime", got, want)
	}
	limited := workload.Config{M: 4096, N: 4096, K: 4096, P: 64, S: 1 << 19}
	if cosmaForm(limited).q < bound.ParallelLowerBound(limited.M, limited.N, limited.K, limited.P, limited.S) {
		t.Fatal("COSMA Q below the Theorem 2 bound")
	}
}

func TestCOSMANeverWorse(t *testing.T) {
	// Across a parameter sweep, COSMA's Q must never exceed any other
	// algorithm's Q by more than rounding noise (it is optimal).
	cases := []workload.Config{
		{M: 1 << 12, N: 1 << 12, K: 1 << 12, P: 64, S: 1 << 19},
		{M: 1 << 12, N: 1 << 12, K: 1 << 12, P: 64, S: 1 << 25},
		{M: 17408, N: 17408, K: 3735552, P: 4096, S: 1 << 21},
		{M: 1 << 17, N: 1 << 17, K: 512, P: 1024, S: 1 << 21},
		{M: 131072, N: 512, K: 512, P: 128, S: 1 << 21},
	}
	for _, c := range cases {
		q := cosmaForm(c).q
		for _, other := range []closedForm{twoD(c), twoPointFiveD(c), recursive(c)} {
			if q > other.q*1.001 {
				t.Fatalf("%+v: COSMA Q %v exceeds %s Q %v", c, q, other.algorithm, other.q)
			}
		}
	}
}

func TestTwoDCollapsesForSquare(t *testing.T) {
	// For square matrices 2D's Q is 2n²/√p + n²/p.
	n, p := 1024, 16
	got := twoD(workload.Config{M: n, N: n, K: n, P: p, S: 1 << 18}).q
	want := 2*float64(n)*float64(n)/4 + float64(n)*float64(n)/16
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("2D square Q = %v, want %v", got, want)
	}
}

func TestAllReturnsFourRows(t *testing.T) {
	rows := closedForms(workload.Config{M: 64, N: 64, K: 64, P: 4, S: 4096})
	if len(rows) != 4 {
		t.Fatalf("closedForms returned %d rows", len(rows))
	}
	for _, r := range rows {
		if r.q <= 0 || math.IsNaN(r.q) || r.l < 0 || math.IsNaN(r.l) {
			t.Fatalf("%s: bad costs %+v", r.algorithm, r)
		}
	}
}

func TestValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	twoD(workload.Config{M: 0, N: 1, K: 1, P: 1, S: 1})
}

func byAlgorithm(forms []closedForm) map[string]closedForm {
	out := make(map[string]closedForm, len(forms))
	for _, c := range forms {
		out[c.algorithm] = c
	}
	return out
}
