package costmodel

import (
	"math"
	"testing"

	"cosma/internal/bound"
)

func TestSquareLimitedRegime(t *testing.T) {
	// Table 3, square limited-memory case: 2D, 2.5D and COSMA achieve
	// ~2n²(√p+1)/p; the recursive decomposition is worse by ~√3/…
	n, p := 1<<12, 1<<6
	costs := SquareLimited(n, p)
	want := 2 * float64(n) * float64(n) * (math.Sqrt(float64(p)) + 1) / float64(p)
	byName := index(costs)
	// 2D and COSMA both land on Θ(n²/√p) with constants within the
	// √2 presentational slack of the Table 3 special-case row.
	for _, name := range []string{"2D", "COSMA"} {
		got := byName[name].Q
		if got < 0.5*want || got > 1.3*want {
			t.Fatalf("%s: Q = %v, want ≈ %v", name, got, want)
		}
	}
	if rec := byName["recursive"].Q; rec <= byName["COSMA"].Q {
		t.Fatalf("recursive Q %v should exceed COSMA %v in limited memory", rec, byName["COSMA"].Q)
	}
	ratio := byName["recursive"].Q / byName["COSMA"].Q
	if ratio < 1.2 || ratio > 2.2 {
		t.Fatalf("recursive/COSMA ratio %v, paper predicts ≈ √3·…", ratio)
	}
}

func TestTallExtraRegime(t *testing.T) {
	// Table 3, tall case with extra memory: COSMA and recursive are both
	// Θ(p) and close (the paper's exact constants are 0.69p vs 0.75p);
	// 2.5D is Θ(p^{4/3}) and 2D Θ(p^{3/2}) — orders of magnitude worse.
	p := 1 << 12
	byName := index(TallExtra(p))
	cosma := byName["COSMA"].Q
	if r := byName["recursive"].Q / cosma; r < 0.9 || r > 1.3 {
		t.Fatalf("recursive/COSMA = %v, paper predicts ≈ 1.08", r)
	}
	if r := byName["2.5D"].Q / cosma; r < 2 {
		t.Fatalf("2.5D/COSMA = %v, should be Θ(p^(1/3))-ish ≫ 1", r)
	}
	if r := byName["2D"].Q / cosma; r < 10 {
		t.Fatalf("2D/COSMA = %v, should be Θ(√p)-ish ≫ 1", r)
	}
	// Ordering: 2D worst, then 2.5D, then recursive, then COSMA.
	if !(byName["2D"].Q > byName["2.5D"].Q && byName["2.5D"].Q > byName["recursive"].Q) {
		t.Fatalf("ordering broken: %+v", byName)
	}
}

func TestCOSMAMatchesTheorem2(t *testing.T) {
	// In the cubic (ample-memory) regime COSMA's attainable Q equals the
	// Theorem 2 bound exactly; in every regime it is at least the bound.
	// The second check cannot fail on S: bound.ParallelLowerBound as coded
	// is 3(mnk/p)^(2/3) for every S (AM-GM, see its doc comment), while
	// COSMA's Q case-splits on Eq. 32's domain — ROADMAP item 3(a).
	extra := Params{M: 4096, N: 4096, K: 4096, P: 64, S: 1 << 25}
	got := COSMA(extra).Q
	want := bound.ParallelLowerBound(extra.M, extra.N, extra.K, extra.P, extra.S)
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("COSMA Q %v != Theorem 2 bound %v in cubic regime", got, want)
	}
	limited := Params{M: 4096, N: 4096, K: 4096, P: 64, S: 1 << 19}
	if COSMA(limited).Q < bound.ParallelLowerBound(limited.M, limited.N, limited.K, limited.P, limited.S) {
		t.Fatal("COSMA Q below the Theorem 2 bound")
	}
}

func TestCOSMANeverWorse(t *testing.T) {
	// Across a parameter sweep, COSMA's Q must never exceed any other
	// algorithm's Q by more than rounding noise (it is optimal).
	cases := []Params{
		{M: 1 << 12, N: 1 << 12, K: 1 << 12, P: 64, S: 1 << 19},
		{M: 1 << 12, N: 1 << 12, K: 1 << 12, P: 64, S: 1 << 25},
		{M: 17408, N: 17408, K: 3735552, P: 4096, S: 1 << 21},
		{M: 1 << 17, N: 1 << 17, K: 512, P: 1024, S: 1 << 21},
		{M: 131072, N: 512, K: 512, P: 128, S: 1 << 21},
	}
	for _, p := range cases {
		c := COSMA(p).Q
		for _, other := range []Costs{TwoD(p), TwoPointFiveD(p), Recursive(p)} {
			if c > other.Q*1.001 {
				t.Fatalf("%+v: COSMA Q %v exceeds %s Q %v", p, c, other.Algorithm, other.Q)
			}
		}
	}
}

func TestTwoDCollapsesForSquare(t *testing.T) {
	// For square matrices 2D's Q is 2n²/√p + n²/p.
	n, p := 1024, 16
	got := TwoD(Params{M: n, N: n, K: n, P: p, S: 1 << 18}).Q
	want := 2*float64(n)*float64(n)/4 + float64(n)*float64(n)/16
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("2D square Q = %v, want %v", got, want)
	}
}

func TestAllReturnsFourRows(t *testing.T) {
	rows := All(Params{M: 64, N: 64, K: 64, P: 4, S: 4096})
	if len(rows) != 4 {
		t.Fatalf("All returned %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Q <= 0 || math.IsNaN(r.Q) || r.L < 0 || math.IsNaN(r.L) {
			t.Fatalf("%s: bad costs %+v", r.Algorithm, r)
		}
	}
}

func TestValidatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TwoD(Params{M: 0, N: 1, K: 1, P: 1, S: 1})
}

func index(costs []Costs) map[string]Costs {
	out := make(map[string]Costs, len(costs))
	for _, c := range costs {
		out[c.Algorithm] = c
	}
	return out
}
