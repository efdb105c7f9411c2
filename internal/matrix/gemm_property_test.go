package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// mulBlockedRef is the scalar reference for the packed kernel's
// reproducibility contract. For each C element it forms one partial
// sum per KC block — fused (math.FMA, matching the SIMD variants'
// one-rounding multiply-add) or unfused (separate multiply and add,
// matching the portable Go tile) — and adds each partial into C once.
// That is the complete description of the kernel's per-element
// floating-point order: the MC/NC blocking, the micro-panel packing
// and the thread decomposition only reorder independent elements, so
// any kernel configuration sharing (KC, fusedness) must agree with
// this reference bit for bit.
func mulBlockedRef(c, a, b *Dense, kcb int, fused bool) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			cij := c.Data[i*c.Stride+j]
			for pc := 0; pc < a.Cols; pc += kcb {
				kb := min(kcb, a.Cols-pc)
				acc := 0.0
				for p := pc; p < pc+kb; p++ {
					av := a.Data[i*a.Stride+p]
					bv := b.Data[p*b.Stride+j]
					if fused {
						acc = math.FMA(av, bv, acc)
					} else {
						acc += av * bv
					}
				}
				cij += acc
			}
			c.Data[i*c.Stride+j] = cij
		}
	}
}

// randomStrided builds a rows×cols matrix whose stride exceeds cols by
// a random pad, with every backing element (padding included) filled
// randomly — so a kernel that reads or writes outside the logical
// cols-wide window changes bits the test will catch.
func randomStrided(rng *rand.Rand, rows, cols int) *Dense {
	stride := cols + rng.Intn(7)
	d := &Dense{Rows: rows, Cols: cols, Stride: stride, Data: make([]float64, rows*stride)}
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

// cloneStrided copies a matrix including its padding lanes.
func cloneStrided(d *Dense) *Dense {
	return &Dense{Rows: d.Rows, Cols: d.Cols, Stride: d.Stride,
		Data: append([]float64(nil), d.Data...)}
}

// borderedC returns a parent matrix holding an m×n window of C strictly
// inside it — at least a register tile of rows below and columns to
// the right, a few above and to the left — the window (see window)
// filled randomly and everything around it with −0. The SIMD sweep
// walks C itself, row by row and tile by tile, so a step that is off
// by one lands on the border, and −0 is the one value that even an
// added +0 (what a zero-padded fringe lane accumulates) changes the
// bits of; callers compare parent.Data, border included, bit for bit.
func borderedC(rng *rand.Rand, m, n int) *Dense {
	parent := New(m+borderRows, n+borderCols)
	parent.Fill(math.Copysign(0, -1))
	c := window(parent)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			c.Data[i*c.Stride+j] = rng.NormFloat64()
		}
	}
	return parent
}

// The border of a borderedC parent: the window starts at (borderTop,
// borderLeft) and the parent is borderRows taller and borderCols wider
// than it, which leaves 8 rows below and 9 columns to the right.
const borderTop, borderLeft, borderRows, borderCols = 2, 3, 10, 12

// window is the C view inside a borderedC parent (or a clone of one).
func window(parent *Dense) *Dense {
	return parent.View(borderTop, borderLeft, parent.Rows-borderRows, parent.Cols-borderCols)
}

// requireSameBits fails the test at the first element of got that is
// not bit-identical to want.
func requireSameBits(t *testing.T, got, want []float64, format string, args ...any) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf(format+": Data[%d] = %v, reference %v", append(args, i, got[i], want[i])...)
		}
	}
}

// TestKernelVariantsBitwiseIdentical is the randomized property test of
// the reproducibility contract: for random problem shapes, random
// strides, random cache-block parameters, every available micro-kernel
// variant and several thread counts, the packed kernel's output —
// padding bytes included — must equal mulBlockedRef bit for bit. This
// is what guarantees a distributed run's product does not depend on
// how many worker goroutines each rank happened to get.
func TestKernelVariantsBitwiseIdentical(t *testing.T) {
	trials := 6
	if testing.Short() {
		trials = 2
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < trials; trial++ {
		m, n, kk := 1+rng.Intn(300), 1+rng.Intn(300), 1+rng.Intn(300)
		a := randomStrided(rng, m, kk)
		b := randomStrided(rng, kk, n)
		c0 := randomStrided(rng, m, n) // nonzero C exercises the += contract
		for _, v := range Variants() {
			par := Params{
				MC:      4 + rng.Intn(160),
				KC:      8 + rng.Intn(300),
				NC:      16 + rng.Intn(600),
				Variant: v,
			}
			want := cloneStrided(c0)
			mulBlockedRef(want, a, b, par.KC, v.Fused())
			for _, threads := range []int{1, 2, 5} {
				got := cloneStrided(c0)
				NewKernelParams(threads, par).Mul(got, a, b)
				for i := range got.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("trial %d (%d×%d·%d×%d, %+v, %d threads): Data[%d] = %v, reference %v",
							trial, m, kk, kk, n, par, threads, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}

	// The sweep's edges, exhaustively: block heights of one tile less a
	// row, exactly one tile, one tile and a fringe row, two tiles and a
	// fringe; panel widths either side of nr; depths of one step, the
	// tight workload's eight, one full kc block and one step into the
	// next; and MC values that are not multiples of mr, which put a
	// fringe tile in the middle of a column (the sweep runs ⌊mb/mr⌋
	// tiles, the staged edge kernel the rest, then the next block).
	for _, v := range Variants() {
		vmr, vnr := v.Dims()
		for _, mcb := range []int{mc, vmr + 1, 2*vmr + 1} {
			par := Params{MC: mcb, Variant: v}
			for _, m := range []int{vmr - 1, vmr, vmr + 1, 2*vmr + 3} {
				for _, n := range []int{vnr - 1, vnr, vnr + 1} {
					for _, kk := range []int{1, 8, kc, kc + 1} {
						a := randomStrided(rng, m, kk)
						b := randomStrided(rng, kk, n)
						c0 := borderedC(rng, m, n)
						want := cloneStrided(c0)
						mulBlockedRef(window(want), a, b, kc, v.Fused())
						for _, threads := range []int{1, 2, 5} {
							got := cloneStrided(c0)
							NewKernelParams(threads, par).Mul(window(got), a, b)
							requireSameBits(t, got.Data, want.Data, "%d×%d·%d×%d, %+v, %d threads, C with its border",
								m, kk, kk, n, par, threads)
						}
					}
				}
			}
		}
	}
}

// viewInStride returns a rows×cols window of a zeroed rows×stride
// parent, filled randomly — an operand as the rank program hands it to
// the kernel: a panel of the caller's much wider matrix, read in place.
func viewInStride(rng *rand.Rand, rows, cols, stride int) *Dense {
	v := New(rows, stride).View(0, stride-cols-1, rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			v.Data[i*v.Stride+j] = rng.NormFloat64()
		}
	}
	return v
}

// TestKernelStridedViewsBitwiseIdentical holds packA/packB to reading
// any stride: with A and B views whose Stride dwarfs Cols — the row
// stride of tall-k's A (65536 words, every row on the same cache sets),
// a smaller power of two, and an odd one — every variant and thread
// count must produce the bits it produces from compact copies, and,
// into a C that is itself a view inside a −0 border, the bits the
// scalar reference produces from those copies.
func TestKernelStridedViewsBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	borderRng := rand.New(rand.NewSource(8))
	const m, n, kk = 29, 37, 70
	for _, strides := range [][2]int{{65536, 1537}, {1024, 1024}, {1537, 1024}} {
		a := viewInStride(rng, m, kk, strides[0])
		b := viewInStride(rng, kk, n, strides[1])
		compactA, compactB := a.Clone(), b.Clone()
		c0 := randomStrided(rng, m, n)
		bordered0 := borderedC(borderRng, m, n)
		for _, v := range Variants() {
			par := Params{MC: 4 + rng.Intn(40), KC: 8 + rng.Intn(80), NC: 16 + rng.Intn(40), Variant: v}
			ref := cloneStrided(bordered0)
			mulBlockedRef(window(ref), compactA, compactB, par.KC, v.Fused())
			for _, threads := range []int{1, 2, 5} {
				want, got := cloneStrided(c0), cloneStrided(c0)
				NewKernelParams(threads, par).Mul(want, compactA, compactB)
				NewKernelParams(threads, par).Mul(got, a, b)
				for i := range got.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("strides %v, %+v, %d threads: Data[%d] = %v from views, %v from compact copies",
							strides, par, threads, i, got.Data[i], want.Data[i])
					}
				}
				bordered := cloneStrided(bordered0)
				NewKernelParams(threads, par).Mul(window(bordered), a, b)
				requireSameBits(t, bordered.Data, ref.Data, "strides %v, %+v, %d threads, views into C with its border",
					strides, par, threads)
			}
		}
	}
}

// TestKernelMatchesNaive pins the variants to the true product, not
// just to each other: every variant must agree with the textbook
// triple loop within accumulation-order rounding.
func TestKernelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 97 // prime: every blocking fringe is exercised
	a := Random(n, n, rng)
	b := Random(n, n, rng)
	want := New(n, n)
	MulNaive(want, a, b)
	for _, v := range Variants() {
		got := New(n, n)
		NewKernelParams(2, Params{Variant: v}).Mul(got, a, b)
		for i := range got.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-9*math.Max(1, math.Abs(want.Data[i])) {
				t.Fatalf("%s: element %d = %v, naive %v", v, i, got.Data[i], want.Data[i])
			}
		}
	}
}
