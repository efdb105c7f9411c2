package matrix

import (
	"math/rand"
	"testing"
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

func TestPackRowMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Random(5, 7, rng)
	v := m.View(1, 2, 3, 4)
	packed := v.Pack(nil)
	if len(packed) != 12 {
		t.Fatalf("Pack length %d", len(packed))
	}
	for i, x := range packed {
		if x != v.At(i/4, i%4) {
			t.Fatalf("packed word %d = %v, want element (%d,%d) = %v", i, x, i/4, i%4, v.At(i/4, i%4))
		}
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

func TestMulShapePanic(t *testing.T) {
	defer wantPanic(t, "shape mismatch")
	NewKernel(1).Mul(New(2, 2), New(2, 3), New(4, 2))
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
