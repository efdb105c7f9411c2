package bound

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSequentialLowerBoundFormula(t *testing.T) {
	// 2·8·8·8/√16 + 64 = 1024/4 + 64 = 320.
	if got := SequentialLowerBound(8, 8, 8, 16); got != 320 {
		t.Fatalf("SequentialLowerBound(8,8,8,16) = %v, want 320", got)
	}
}

func TestGreedyAttainableAboveLowerBound(t *testing.T) {
	for _, s := range []int{4, 16, 100, 1024, 1 << 20} {
		lb := SequentialLowerBound(64, 64, 64, s)
		at := GreedyAttainableIO(64, 64, 64, s)
		if at < lb {
			t.Fatalf("S=%d: attainable %v below lower bound %v", s, at, lb)
		}
		if at > lb*SequentialGap(s)+1e-6 {
			t.Fatalf("S=%d: attainable %v exceeds gap-adjusted bound %v", s, at, lb*SequentialGap(s))
		}
	}
}

func TestSequentialGapApproachesOne(t *testing.T) {
	// Paper abstract: within ~0.03–0.04% of optimal for 10 MB fast memory
	// (S = 1.31e6 float64 words).
	g := SequentialGap(10 << 20 / 8)
	if g < 1 {
		t.Fatalf("gap %v < 1", g)
	}
	if g > 1.001 {
		t.Fatalf("gap %v should be below 1.001 for 10 MB", g)
	}
	if SequentialGap(4) <= SequentialGap(100) {
		t.Fatal("gap must shrink as S grows")
	}
}

func TestTileIOSquareTileMatchesGreedyFormula(t *testing.T) {
	m, n, k := 128, 128, 128
	side := 15 // √(S+1)−1 for S = 255
	got := TileIO(m, n, k, side, side)
	// ⌈128/15⌉² = 81 tiles... verify against the explicit count rather
	// than the continuous 2mnk/side formula, which assumes divisibility.
	want := float64(9*9)*float64(k)*float64(2*side) + float64(m*n)
	if got != want {
		t.Fatalf("TileIO = %v, want %v", got, want)
	}
}

func TestTileIODivisibleMatchesClosedForm(t *testing.T) {
	m, n, k, side := 120, 120, 64, 15
	got := TileIO(m, n, k, side, side)
	want := 2*float64(m)*float64(n)*float64(k)/float64(side) + float64(m*n)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("TileIO = %v, closed form %v", got, want)
	}
}

func TestOptimalTileNearSqrtS(t *testing.T) {
	for _, s := range []int{16, 64, 100, 1024, 65536, 1 << 20} {
		a, b := OptimalTile(s)
		sq := math.Sqrt(float64(s))
		if float64(a) > sq || float64(b) > sq {
			t.Fatalf("S=%d: tile %d×%d exceeds √S=%v", s, a, b, sq)
		}
		if a*b+a+1 > s {
			t.Fatalf("S=%d: tile %d×%d infeasible (ab+a+1=%d)", s, a, b, a*b+a+1)
		}
		if s >= 64 && (float64(a) < 0.5*sq || float64(b) < 0.5*sq) {
			t.Fatalf("S=%d: tile %d×%d too far below √S", s, a, b)
		}
	}
}

// Property: OptimalTile is (near-)optimal — no feasible integer tile has
// meaningfully higher intensity ab/(a+b).
func TestOptimalTileIsOptimalProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := 8 + r.Intn(4000)
		a, b := OptimalTile(s)
		best := float64(a*b) / float64(a+b)
		for aa := 1; aa*aa <= s; aa++ {
			// largest b feasible for this a: ab + a + 1 ≤ S
			bb := (s - aa - 1) / aa
			if bb < 1 {
				continue
			}
			if got := float64(aa*bb) / float64(aa+bb); got > best*1.0000001 {
				t.Logf("S=%d: tile (%d,%d) ρ=%v beats OptimalTile (%d,%d) ρ=%v", s, aa, bb, got, a, b, best)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelLowerBoundRegimes(t *testing.T) {
	// Limited memory: the 2mnk/(p√S)+S branch must win.
	m, n, k := 1024, 1024, 1024
	p, s := 64, 2*1024*1024/64 // S = 2·n²/p as in Table 3's square case
	w := float64(m) * float64(n) * float64(k) / float64(p)
	limited := 2*w/math.Sqrt(float64(s)) + float64(s)
	cubic := 3 * math.Pow(w, 2.0/3.0)
	got := ParallelLowerBound(m, n, k, p, s)
	if got != math.Min(limited, cubic) {
		t.Fatalf("ParallelLowerBound = %v, want min(%v, %v)", got, limited, cubic)
	}
	// Extra memory: huge S must switch to the cubic branch.
	got = ParallelLowerBound(m, n, k, p, 1<<40)
	if math.Abs(got-cubic) > 1e-6*cubic {
		t.Fatalf("extra-memory bound %v, want cubic %v", got, cubic)
	}
}

func TestParallelLowerBoundMonotoneInP(t *testing.T) {
	prev := math.Inf(1)
	for _, p := range []int{1, 2, 4, 8, 16, 32} {
		q := ParallelLowerBound(512, 512, 512, p, 4096)
		if q > prev {
			t.Fatalf("bound increased from %v to %v at p=%d", prev, q, p)
		}
		prev = q
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	cases := []func(){
		func() { SequentialLowerBound(0, 1, 1, 4) },
		func() { SequentialLowerBound(1, 1, 1, 0) },
		func() { ParallelLowerBound(1, 1, 1, 0, 4) },
		func() { OptimalTile(3) },
		func() { TileIO(1, 1, 1, 0, 1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
