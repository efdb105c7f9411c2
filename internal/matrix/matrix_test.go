package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 {
		t.Fatalf("New(3,4) = %d×%d stride %d", m.Rows, m.Cols, m.Stride)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("New not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestSetAt(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("At(0,0) = %v, want 0", got)
	}
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, d)
	if m.At(0, 2) != 3 || m.At(1, 0) != 4 {
		t.Fatalf("FromSlice layout wrong: %v", m)
	}
	m.Set(0, 0, 9)
	if d[0] != 9 {
		t.Fatal("FromSlice must not copy")
	}
}

func TestFromSliceBadLength(t *testing.T) {
	defer wantPanic(t, "FromSlice with wrong length")
	FromSlice(2, 3, make([]float64, 5))
}

func TestEye(t *testing.T) {
	m := Eye(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if m.At(i, j) != want {
				t.Fatalf("Eye(3) at (%d,%d) = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestViewSharesStorage(t *testing.T) {
	m := New(4, 4)
	v := m.View(1, 1, 2, 2)
	v.Set(0, 0, 5)
	if m.At(1, 1) != 5 {
		t.Fatal("view write not visible in parent")
	}
	m.Set(2, 2, 8)
	if v.At(1, 1) != 8 {
		t.Fatal("parent write not visible in view")
	}
}

func TestViewOfView(t *testing.T) {
	m := New(6, 6)
	m.Set(3, 4, 42)
	v := m.View(1, 2, 4, 4).View(2, 2, 1, 1)
	if v.At(0, 0) != 42 {
		t.Fatalf("nested view: got %v, want 42", v.At(0, 0))
	}
}

func TestViewEmpty(t *testing.T) {
	m := New(3, 3)
	v := m.View(1, 1, 0, 2)
	if v.Rows != 0 || v.Cols != 2 {
		t.Fatalf("empty view dims %d×%d", v.Rows, v.Cols)
	}
}

func TestViewOutOfRange(t *testing.T) {
	defer wantPanic(t, "view out of range")
	New(3, 3).View(2, 2, 2, 2)
}

func TestCloneIndependent(t *testing.T) {
	m := New(3, 3)
	m.Set(1, 1, 2)
	c := m.Clone()
	c.Set(1, 1, 9)
	if m.At(1, 1) != 2 {
		t.Fatal("Clone shares storage")
	}
	if c.Stride != c.Cols {
		t.Fatal("Clone must be contiguous")
	}
}

func TestCloneOfView(t *testing.T) {
	m := New(4, 4)
	m.Set(1, 2, 3)
	c := m.View(1, 1, 2, 2).Clone()
	if c.At(0, 1) != 3 {
		t.Fatalf("clone of view: got %v, want 3", c.At(0, 1))
	}
	if len(c.Data) != 4 {
		t.Fatalf("clone of 2×2 view has %d elements", len(c.Data))
	}
}

func TestCopyFrom(t *testing.T) {
	src := FromSlice(2, 2, []float64{1, 2, 3, 4})
	dst := New(4, 4)
	dst.View(1, 1, 2, 2).CopyFrom(src)
	if dst.At(1, 1) != 1 || dst.At(2, 2) != 4 {
		t.Fatalf("CopyFrom into view failed: %v", dst)
	}
	if dst.At(0, 0) != 0 || dst.At(3, 3) != 0 {
		t.Fatal("CopyFrom wrote outside the view")
	}
}

func TestZeroOnView(t *testing.T) {
	m := New(3, 3)
	m.Fill(7)
	m.View(0, 0, 2, 2).Zero()
	if m.At(0, 0) != 0 || m.At(1, 1) != 0 {
		t.Fatal("Zero did not clear the view")
	}
	if m.At(2, 2) != 7 || m.At(0, 2) != 7 {
		t.Fatal("Zero cleared outside the view")
	}
}

func TestAdd(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 3, 4})
	b := FromSlice(2, 2, []float64{10, 20, 30, 40})
	a.Add(b)
	want := FromSlice(2, 2, []float64{11, 22, 33, 44})
	if MaxDiff(a, want) != 0 {
		t.Fatalf("Add result %v", a)
	}
}

func TestMaxDiff(t *testing.T) {
	a := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{1, 2.5, 2})
	if got := MaxDiff(a, b); got != 1 {
		t.Fatalf("MaxDiff = %v, want 1", got)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Random(5, 7, rng)
	v := m.View(1, 2, 3, 4)
	packed := v.Pack(nil)
	if len(packed) != 12 {
		t.Fatalf("Pack length %d", len(packed))
	}
	out := New(3, 4)
	out.Unpack(packed)
	if MaxDiff(out, v.Clone()) != 0 {
		t.Fatal("Pack/Unpack round trip failed")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(4, 4, rand.New(rand.NewSource(7)))
	b := Random(4, 4, rand.New(rand.NewSource(7)))
	if MaxDiff(a, b) != 0 {
		t.Fatal("Random not deterministic for equal seeds")
	}
	for _, v := range a.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("Random value %v out of [-1,1)", v)
		}
	}
}

func TestMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {17, 9, 33}, {64, 64, 64}, {65, 130, 67}, {128, 1, 100}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := Random(m, k, rng)
		b := Random(k, n, rng)
		c1 := Random(m, n, rng)
		c2 := c1.Clone()
		NewKernel(1).Mul(c1, a, b)
		MulNaive(c2, a, b)
		if d := MaxDiff(c1, c2); d > 1e-10*float64(k) {
			t.Fatalf("Mul vs naive for %v: max diff %g", dims, d)
		}
	}
}

func TestMulOnViews(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	big := Random(20, 20, rng)
	a := big.View(0, 0, 6, 7)
	b := big.View(7, 7, 7, 5)
	c := New(6, 5)
	cRef := New(6, 5)
	NewKernel(1).Mul(c, a, b)
	MulNaive(cRef, a.Clone(), b.Clone())
	if d := MaxDiff(c, cRef); d > 1e-9 {
		t.Fatalf("Mul on views: max diff %g", d)
	}
}

func TestMulAccumulates(t *testing.T) {
	a := Eye(3)
	b := FromSlice(3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	c := b.Clone()
	NewKernel(1).Mul(c, a, b) // C = B + I·B = 2B
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if c.At(i, j) != 2*b.At(i, j) {
				t.Fatalf("Mul does not accumulate at (%d,%d)", i, j)
			}
		}
	}
}

func TestMulShapePanic(t *testing.T) {
	defer wantPanic(t, "shape mismatch")
	NewKernel(1).Mul(New(2, 2), New(2, 3), New(4, 2))
}

func TestRankOneUpdate(t *testing.T) {
	c := New(2, 3)
	RankOneUpdate(c, []float64{1, 2}, []float64{10, 20, 30})
	want := FromSlice(2, 3, []float64{10, 20, 30, 20, 40, 60})
	if MaxDiff(c, want) != 0 {
		t.Fatalf("RankOneUpdate = %v", c)
	}
}

func TestRankOneEqualsMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, n, k := 9, 11, 6
	a := Random(m, k, rng)
	b := Random(k, n, rng)
	c1 := New(m, n)
	c2 := New(m, n)
	NewKernel(1).Mul(c1, a, b)
	col := make([]float64, m)
	row := make([]float64, n)
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			col[i] = a.At(i, p)
		}
		for j := 0; j < n; j++ {
			row[j] = b.At(p, j)
		}
		RankOneUpdate(c2, col, row)
	}
	if d := MaxDiff(c1, c2); d > 1e-10*float64(k) {
		t.Fatalf("sum of rank-1 updates differs from Mul by %g", d)
	}
}

// Property: (A·B)·x == A·(B·x) for random matrices, i.e. Mul is associative
// with matrix-vector products — a strong structural check of the kernel.
func TestMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(12)
		k := 1 + r.Intn(12)
		n := 1 + r.Intn(12)
		a := Random(m, k, rng)
		b := Random(k, n, rng)
		x := Random(n, 1, rng)
		ab := New(m, n)
		NewKernel(1).Mul(ab, a, b)
		abx := New(m, 1)
		NewKernel(1).Mul(abx, ab, x)
		bx := New(k, 1)
		NewKernel(1).Mul(bx, b, x)
		abx2 := New(m, 1)
		NewKernel(1).Mul(abx2, a, bx)
		return MaxDiff(abx, abx2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: identity is a left and right unit for Mul.
func TestMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(20)
		n := 1 + r.Intn(20)
		a := Random(m, n, r)
		left := New(m, n)
		NewKernel(1).Mul(left, Eye(m), a)
		right := New(m, n)
		NewKernel(1).Mul(right, a, Eye(n))
		return MaxDiff(left, a) == 0 && MaxDiff(right, a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyViewOperations(t *testing.T) {
	// Regression: a 3×0 view has nil Data but nonzero Stride; every helper
	// must tolerate it (COSMA creates such views for ranks owning an empty
	// share of a panel).
	m := New(6, 2)
	v := m.View(0, 0, 3, 0)
	c := v.Clone()
	if c.Rows != 3 || c.Cols != 0 {
		t.Fatalf("clone of empty view is %d×%d", c.Rows, c.Cols)
	}
	c.CopyFrom(v)
	c.Zero()
	c.Fill(1)
	c.Add(v)
	if MaxDiff(c, v) != 0 {
		t.Fatal("MaxDiff on empty views")
	}
	if got := v.Pack(nil); len(got) != 0 {
		t.Fatalf("Pack of empty view returned %d words", len(got))
	}
	v.Unpack(nil)
	w := m.View(2, 1, 0, 1) // 0×1 view
	if got := w.Pack(nil); len(got) != 0 {
		t.Fatalf("Pack of 0×1 view returned %d words", len(got))
	}
}

func wantPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("expected panic: %s", what)
	}
}
