package strassen

import (
	"math"
	"math/rand"
	"testing"

	"cosma/internal/algo"
	"cosma/internal/matrix"
)

// naive is the reference triple loop — deliberately not the packed
// kernel, so the comparison is against textbook arithmetic.
func naive(a, b *matrix.Dense) *matrix.Dense {
	c := matrix.New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for l := 0; l < a.Cols; l++ {
			av := a.At(i, l)
			for j := 0; j < b.Cols; j++ {
				c.Data[i*c.Stride+j] += av * b.At(l, j)
			}
		}
	}
	return c
}

// strassenTol is a magnitude-scaled error bound: Strassen's operand
// additions amplify roundoff by a constant factor per level beyond the
// classical k·ε·‖A‖‖B‖, so the bound carries a generous level factor.
func strassenTol(a, b *matrix.Dense, k int) float64 {
	var ma, mb float64
	for _, v := range a.Data {
		ma = math.Max(ma, math.Abs(v))
	}
	for _, v := range b.Data {
		mb = math.Max(mb, math.Abs(v))
	}
	const eps = 2.2e-16
	return 1e4 * float64(k) * eps * ma * mb
}

func TestCAPSCorrectness(t *testing.T) {
	cases := []struct {
		name          string
		m, n, k, p, s int
		cutoff        int
	}{
		{"single-rank", 96, 96, 96, 1, 1 << 20, 16},
		{"seven-ranks", 128, 128, 128, 7, 1 << 20, 16},
		{"eight-ranks-one-idle", 128, 128, 128, 8, 1 << 20, 16},
		{"forty-nine-ranks", 112, 112, 112, 49, 1 << 20, 8},
		{"rectangular", 112, 80, 96, 7, 1 << 20, 16},
		{"odd-dims-degrade", 97, 51, 33, 7, 1 << 20, 16},
		{"dfs-low-memory", 128, 128, 128, 7, 20000, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			a := matrix.Random(tc.m, tc.k, rng)
			b := matrix.Random(tc.k, tc.n, rng)
			c := CAPS{Cutoff: tc.cutoff}
			got, rep, err := algo.RunPlanner(c, nil, a, b, tc.p, tc.s)
			if err != nil {
				t.Fatal(err)
			}
			want := naive(a, b)
			tol := strassenTol(a, b, tc.k)
			if d := matrix.MaxDiff(got, want); d > tol {
				t.Fatalf("max |CAPS − naive| = %g, tolerance %g", d, tol)
			}
			if rep.Used < 1 || rep.Used > tc.p {
				t.Fatalf("report says %d ranks used of %d", rep.Used, tc.p)
			}
		})
	}
}

// TestCAPSScheduleDFS pins the BFS/DFS interleaving: ample memory takes
// pure BFS; a squeezed S defers the split with DFS steps first.
func TestCAPSScheduleDFS(t *testing.T) {
	steps, used := schedule(128, 128, 128, 7, 1<<20, DefaultCutoff)
	if used != 7 || len(steps) != 1 || steps[0] != stepBFS {
		t.Fatalf("ample memory: got used=%d steps=%v, want one BFS on 7 ranks", used, steps)
	}
	steps, used = schedule(128, 128, 128, 7, 20000, DefaultCutoff)
	if used != 7 || len(steps) < 2 || steps[0] != stepDFS {
		t.Fatalf("tight memory: got used=%d steps=%v, want a DFS step before the BFS", used, steps)
	}
	bfs := 0
	for _, st := range steps {
		if st == stepBFS {
			bfs++
		}
	}
	if bfs != 1 {
		t.Fatalf("tight memory: %d BFS steps for p=7, want exactly 1", bfs)
	}
	// p below 7 cannot split: the schedule degenerates to one rank.
	if _, used = schedule(128, 128, 128, 4, 1<<20, DefaultCutoff); used != 1 {
		t.Fatalf("p=4: used=%d, want 1 (power-of-seven teams)", used)
	}
}

// TestCAPSModelSubcubicFlops checks the model's ω: each doubling of n
// multiplies per-rank flops by 7 per distributed+local level, i.e. the
// 2048³/1024³ flop ratio is ≈ 2^log₂7 = 7, not 8.
func TestCAPSModelSubcubicFlops(t *testing.T) {
	c := CAPS{}
	small := c.Model(1024, 1024, 1024, 7, 1<<30)
	big := c.Model(2048, 2048, 2048, 7, 1<<30)
	ratio := big.MaxFlops / small.MaxFlops
	if math.Abs(ratio-7) > 1e-9 {
		t.Fatalf("flop ratio for n→2n = %v, want 7 (ω = log₂7)", ratio)
	}
	if Omega() != math.Log2(7) {
		t.Fatalf("Omega() = %v, want log₂7", Omega())
	}
	// The plan advertises its exponent for Engine.Predict.
	pl, err := c.Plan(256, 256, 256, 7, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	exp, ok := pl.(algo.Exponent)
	if !ok || exp.Omega() != math.Log2(7) {
		t.Fatalf("plan does not expose ω = log₂7 via algo.Exponent")
	}
	if d, ok := pl.(algo.Distributed); !ok || !d.Distributed() {
		t.Fatal("CAPS plans must gather distributed results (wire transport support)")
	}
}

// TestCAPSRegistered confirms the registry entry and aliases.
func TestCAPSRegistered(t *testing.T) {
	for _, name := range []string{"caps", "strassen", "bdhs"} {
		r, err := algo.New(name, algo.Config{})
		if err != nil {
			t.Fatalf("registry lookup %q: %v", name, err)
		}
		if r.Name() != "CAPS-Strassen" {
			t.Fatalf("registry lookup %q returned %q", name, r.Name())
		}
	}
}

// TestLocalStrassenMatchesKernel drives the leaf recursion directly on
// one rank against the naive product.
func TestLocalStrassenLeafFallback(t *testing.T) {
	// Any odd dimension or sub-cutoff size must go straight to the
	// kernel: localMulFlops then charges exactly 2mnk.
	if got := localMulFlops(63, 64, 64, 16); got != 2*63*64*64 {
		t.Fatalf("odd-dim leaf flops = %v, want %v", got, 2*63*64*64)
	}
	if got := localMulFlops(64, 64, 64, 64); got != 2*64*64*64 {
		t.Fatalf("at-cutoff leaf flops = %v, want %v", got, 2*64*64*64)
	}
	// One even level above the cutoff: 7 half-size kernel calls.
	if got, want := localMulFlops(128, 128, 128, 64), 7*2.0*64*64*64; got != want {
		t.Fatalf("one-level flops = %v, want %v", got, want)
	}
}
