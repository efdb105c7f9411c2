package grid

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCoordsRankRoundTrip(t *testing.T) {
	g := Grid{Pm: 3, Pn: 4, Pk: 2}
	seen := make(map[int]bool)
	for im := 0; im < 3; im++ {
		for in := 0; in < 4; in++ {
			for ik := 0; ik < 2; ik++ {
				r := g.Rank(im, in, ik)
				if r < 0 || r >= g.Ranks() {
					t.Fatalf("rank %d out of range", r)
				}
				if seen[r] {
					t.Fatalf("rank %d duplicated", r)
				}
				seen[r] = true
				gm, gn, gk := g.Coords(r)
				if gm != im || gn != in || gk != ik {
					t.Fatalf("round trip (%d,%d,%d) → %d → (%d,%d,%d)", im, in, ik, r, gm, gn, gk)
				}
			}
		}
	}
	if len(seen) != 24 {
		t.Fatalf("enumerated %d ranks", len(seen))
	}
}

func TestGroups(t *testing.T) {
	g := Grid{Pm: 2, Pn: 3, Pk: 2}
	row := g.RowGroup(1, 1)
	if len(row) != 2 {
		t.Fatalf("row group %v", row)
	}
	for i, r := range row {
		im, in, ik := g.Coords(r)
		if im != i || in != 1 || ik != 1 {
			t.Fatalf("row group member %d has coords (%d,%d,%d)", r, im, in, ik)
		}
	}
	col := g.ColGroup(0, 1)
	if len(col) != 3 {
		t.Fatalf("col group %v", col)
	}
	fib := g.FiberGroup(1, 2)
	if len(fib) != 2 {
		t.Fatalf("fiber group %v", fib)
	}
	for _, r := range fib {
		im, in, _ := g.Coords(r)
		if im != 1 || in != 2 {
			t.Fatalf("fiber member %d misplaced", r)
		}
	}
}

func TestLocalDims(t *testing.T) {
	g := Grid{Pm: 3, Pn: 2, Pk: 4}
	dm, dn, dk := g.LocalDims(10, 10, 10)
	if dm != 4 || dn != 5 || dk != 3 {
		t.Fatalf("LocalDims = %d,%d,%d", dm, dn, dk)
	}
}

func TestDivisors(t *testing.T) {
	got := Divisors(12)
	want := []int{1, 2, 3, 4, 6, 12}
	if len(got) != len(want) {
		t.Fatalf("Divisors(12) = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Divisors(12) = %v", got)
		}
	}
	if d := Divisors(1); len(d) != 1 || d[0] != 1 {
		t.Fatalf("Divisors(1) = %v", d)
	}
	if d := Divisors(13); len(d) != 2 {
		t.Fatalf("Divisors(13) = %v", d)
	}
}

func TestFitSquareProblemPowerOfTwo(t *testing.T) {
	// Square problem, ample memory, p = 64: the fitted grid must use all
	// ranks and be symmetric in m and n.
	g := Fit(4096, 4096, 4096, 64, 1<<30, 0.03)
	if g.Ranks() < 62 {
		t.Fatalf("grid %v wastes too many ranks", g)
	}
	if g.Pm != g.Pn {
		t.Fatalf("square problem got asymmetric grid %v", g)
	}
}

// TestFitFigure5 reproduces Figure 5: with p = 65 and a square problem,
// dropping one rank for a 4×4×4 grid beats any full 65-rank grid
// (1×5×13-shaped) on communication.
func TestFitFigure5(t *testing.T) {
	m := 4096
	g := Fit(m, m, m, 65, 1<<30, 0.03)
	if g.Ranks() != 64 {
		t.Fatalf("Fit used %d ranks (%v), want 64 (one idle)", g.Ranks(), g)
	}
	if g.Pm != 4 || g.Pn != 4 || g.Pk != 4 {
		t.Fatalf("grid %v, want [4×4×4]", g)
	}
	// Quantify: the best full-65 grid must carry substantially more
	// traffic (the paper reports 36%).
	best65 := -1.0
	for _, pm := range Divisors(65) {
		for _, pn := range Divisors(65 / pm) {
			pk := 65 / pm / pn
			v := Grid{pm, pn, pk}.ModelVolume(m, m, m)
			if best65 < 0 || v < best65 {
				best65 = v
			}
		}
	}
	v64 := g.ModelVolume(m, m, m)
	if v64 >= best65 {
		t.Fatalf("4×4×4 volume %v not below best 65-rank volume %v", v64, best65)
	}
	reduction := 1 - v64/best65
	if reduction < 0.2 {
		t.Fatalf("communication reduction %.1f%% too small vs the paper's ~36%%", reduction*100)
	}
	t.Logf("p=65: [4×4×4] reduces model volume by %.1f%% vs best full grid", reduction*100)
}

func TestFitZeroDeltaUsesAllRanks(t *testing.T) {
	g := Fit(1000, 1000, 1000, 65, 1<<30, 0)
	if g.Ranks() != 65 {
		t.Fatalf("δ=0 must use all ranks, got %v", g)
	}
}

func TestFitRespectsMemory(t *testing.T) {
	// Tiny memory forces grids with small C tiles (large pm·pn): with
	// S = 128², feasibility needs pm·pn ≥ mn/S = 64, so the k dimension
	// cannot take more than 2 of the 128 ranks.
	m, n, k, p := 1024, 1024, 64, 128
	s := 128 * 128
	g := Fit(m, n, k, p, s, 0.03)
	dm, dn, _ := g.LocalDims(m, n, k)
	if dm*dn > s {
		t.Fatalf("grid %v C tile %d×%d exceeds memory %d", g, dm, dn, s)
	}
	// With generous memory the same problem should instead use k
	// parallelism or coarser ij tiles — the grids must differ.
	gBig := Fit(m, n, k, p, 1<<30, 0.03)
	if v := gBig.ModelVolume(m, n, k); v > g.ModelVolume(m, n, k)+1e-9 {
		t.Fatalf("more memory produced a worse grid: %v (%v) vs %v", gBig, v, g)
	}
}

func TestFitTallMatrixUsesKDimension(t *testing.T) {
	// largeK: m = n small, k huge → the grid must parallelize along k.
	g := Fit(128, 128, 1<<20, 64, 1<<30, 0.03)
	if g.Pk < 8 {
		t.Fatalf("largeK grid %v barely parallelizes k", g)
	}
}

func TestFitMoreRanksThanWork(t *testing.T) {
	g := Fit(2, 2, 2, 64, 1<<20, 0.03)
	if g.Pm > 2 || g.Pn > 2 || g.Pk > 2 {
		t.Fatalf("grid %v exceeds iteration space", g)
	}
}

func TestFitPropertyValidGrid(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(512)
		n := 1 + r.Intn(512)
		k := 1 + r.Intn(512)
		p := 1 + r.Intn(100)
		s := 64 + r.Intn(1<<20)
		g := Fit(m, n, k, p, s, 0.03)
		if g.Ranks() > p {
			return false
		}
		if g.Pm > m || g.Pn > n || g.Pk > k {
			return false
		}
		return g.Pm >= 1 && g.Pn >= 1 && g.Pk >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestFitUnfavorablePlusOne(t *testing.T) {
	// §9: adding one rank to a nicely factorable p must not produce a
	// worse schedule — the optimizer just leaves the extra rank idle.
	m := 16384
	gGood := Fit(m, m, m, 9216, 1<<26, 0.03)
	gPlus := Fit(m, m, m, 9217, 1<<26, 0.03)
	vGood := gGood.ModelVolume(m, m, m)
	vPlus := gPlus.ModelVolume(m, m, m)
	if vPlus > vGood*1.01 {
		t.Fatalf("p=9217 volume %v much worse than p=9216 volume %v (%v vs %v)",
			vPlus, vGood, gPlus, gGood)
	}
}

func TestSquare(t *testing.T) {
	cases := []struct{ p, pr, pc int }{
		{1, 1, 1}, {4, 2, 2}, {6, 2, 3}, {12, 3, 4}, {13, 1, 13}, {36, 6, 6},
	}
	for _, c := range cases {
		if g := Square(c.p); g != (Grid{c.pr, c.pc, 1}) {
			t.Fatalf("Square(%d) = %v, want [%d×%d×1]", c.p, g, c.pr, c.pc)
		}
	}
}

func TestLayersSelection(t *testing.T) {
	// Tiny memory: no replication possible.
	if g := Layers(1024, 1024, 1024, 64, 64); g.Pk != 1 {
		t.Fatalf("tiny memory picked %v", g)
	}
	// Huge memory: replication capped at p^(1/3).
	if g := Layers(64, 64, 64, 64, 1<<30); g != (Grid{4, 4, 4}) {
		t.Fatalf("huge memory picked %v, want [4×4×4] (c = 64^(1/3))", g)
	}
	// c must divide p, and the layers use all of it.
	if g := Layers(128, 128, 128, 12, 1<<18); g.Ranks() != 12 {
		t.Fatalf("layers %v do not use p = 12", g)
	}
}

// TestHalving pins CARMA's BFS steps: the largest extent is halved with
// the team, m before n before k on ties, and never below one row of the
// smallest block.
func TestHalving(t *testing.T) {
	for _, c := range []struct {
		m, n, k, p, bm, bn int
		want               Grid
	}{
		{1024, 1024, 1024, 16, 1, 1, Grid{4, 2, 2}},
		{16, 16, 128, 16, 1, 1, Grid{2, 1, 8}},
		{16, 16, 16, 12, 1, 1, Grid{2, 2, 2}}, // 8 of 12: a power of two
		{4, 4, 4, 32, 1, 1, Grid{4, 4, 2}},    // k cannot halve below one
		{64, 8, 8, 16, 4, 1, Grid{4, 2, 2}},   // the block is 16×8×8
	} {
		if g := Halving(c.m, c.n, c.k, c.p, c.bm, c.bn); g != c.want {
			t.Errorf("Halving(%d, %d, %d, p = %d, %d×%d blocks) = %v, want %v",
				c.m, c.n, c.k, c.p, c.bm, c.bn, g, c.want)
		}
	}
}

// TestCandidates: Fit's grid comes first, and a policy grid is listed
// once and only where it passes Fit's tests — the idle window ⌊(1−δ)p⌋,
// a C tile within s and no dimension cut finer than its extent.
func TestCandidates(t *testing.T) {
	for _, c := range []struct {
		m, n, k, p, s int
		delta         float64
		want          []Grid
	}{
		// 118³, p = 4: ModelVolume ties Fit's [1×2×2] with Square's.
		{118, 118, 118, 4, 110592, 0.03, []Grid{{1, 2, 2}, {2, 2, 1}}},
		// 16×16×128, p = 16: Fit idles a rank (⌊0.97·16⌋ = 15); Square,
		// Layers and Halving use all 16.
		{16, 16, 128, 16, 1 << 20, 0.03, []Grid{{1, 1, 15}, {4, 4, 1}, {2, 4, 2}, {2, 1, 8}}},
		// Halving's [2×2×2] uses 8 of 12 ranks: outside the window.
		{16, 16, 16, 12, 1 << 20, 0.03, []Grid{{2, 2, 3}, {3, 4, 1}, {2, 3, 2}}},
		// Square's (and Layers') 1×13 cuts n = 4 finer than its extent.
		{64, 4, 64, 13, 1 << 20, 0.03, []Grid{{3, 1, 4}}},
		// 256³, p = 16, S = 6000: Square and Layers repeat Fit's [4×4×1];
		// Halving's [4×2×2] tile (64×128) exceeds S.
		{256, 256, 256, 16, 6000, 0.03, []Grid{{4, 4, 1}}},
		// S = 300 holds no C tile: Fit's fallback, the smallest, alone.
		{64, 64, 64, 4, 300, 0.03, []Grid{{1, 4, 1}}},
	} {
		got := Candidates(c.m, c.n, c.k, c.p, c.s, c.delta)
		if !slices.Equal(got, c.want) {
			t.Errorf("Candidates(%d, %d, %d, p = %d, S = %d) = %v, want %v", c.m, c.n, c.k, c.p, c.s, got, c.want)
		}
	}
}
