package matrix

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// mulBlockedRef is the scalar reference for the packed kernel's
// reproducibility contract. For each C element it forms one partial
// sum per KC block — fused (math.FMA, matching the SIMD tiles'
// one-rounding multiply-add) or unfused (separate multiply and add,
// matching the portable Go tile) — and adds each partial into C once.
// That is the complete description of the kernel's per-element
// floating-point order: the MC/NC blocking, the micro-panel packing
// and the thread decomposition only reorder independent elements, so
// any kernel sharing (KC, fusedness) must agree with
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

// testTiles returns the tiles this binary can run, portable first: the
// Go 4×4, and the dispatched SIMD tile when the CPU has one.
func testTiles() []tile {
	if dispatched.sweep == nil {
		return []tile{portableTile}
	}
	return []tile{portableTile, dispatched}
}

// blockedKernel is a kernel running tl with the given cache blocks.
func blockedKernel(threads int, tl tile, mcb, kcb, ncb int) *Kernel {
	k := newKernel(threads, tl)
	k.mc, k.kc, k.nc = mcb, kcb, ncb
	return k
}

// TestKernelVariantsBitwiseIdentical is the randomized property test of
// the reproducibility contract: for random problem shapes, random
// strides, random cache blocks, both register tiles this binary can run
// (the portable Go 4×4 and the dispatched SIMD tile) and several thread
// counts, the packed kernel's output —
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
		for _, tl := range testTiles() {
			mcb, kcb, ncb := 4+rng.Intn(160), 8+rng.Intn(300), 16+rng.Intn(600)
			want := cloneStrided(c0)
			mulBlockedRef(want, a, b, kcb, tl.fused)
			for _, threads := range []int{1, 2, 5} {
				got := cloneStrided(c0)
				blockedKernel(threads, tl, mcb, kcb, ncb).Mul(got, a, b)
				for i := range got.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("trial %d (%d×%d·%d×%d, %s, blocks %d/%d/%d, %d threads): Data[%d] = %v, reference %v",
							trial, m, kk, kk, n, tl.name, mcb, kcb, ncb, threads, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}

	// The sweep's edges, exhaustively: block heights of one tile less a
	// row, exactly one tile, one tile and a fringe row, two tiles and a
	// fringe; panel widths either side of nr; depths of one step, one
	// pair of steps, a pair and an odd last step (the AVX2 tile's k loop
	// takes two steps at a time), the tight workload's eight, one short
	// of a kc block, one full block and one step into the next; and MC
	// values that are not multiples of mr, which put a fringe tile in
	// the middle of a column (the sweep runs ⌊mb/mr⌋ tiles, the staged
	// edge kernel the rest, then the next block).
	for _, tl := range testTiles() {
		for _, mcb := range []int{mc, tl.mr + 1, 2*tl.mr + 1} {
			for _, m := range []int{tl.mr - 1, tl.mr, tl.mr + 1, 2*tl.mr + 3} {
				for _, n := range []int{tl.nr - 1, tl.nr, tl.nr + 1} {
					for _, kk := range []int{1, 2, 3, 8, kc - 1, kc, kc + 1} {
						a := randomStrided(rng, m, kk)
						b := randomStrided(rng, kk, n)
						c0 := borderedC(rng, m, n)
						want := cloneStrided(c0)
						mulBlockedRef(window(want), a, b, kc, tl.fused)
						for _, threads := range []int{1, 2, 5} {
							got := cloneStrided(c0)
							blockedKernel(threads, tl, mcb, kc, nc).Mul(window(got), a, b)
							requireSameBits(t, got.Data, want.Data, "%d×%d·%d×%d, %s, mc %d, %d threads, C with its border",
								m, kk, kk, n, tl.name, mcb, threads)
						}
					}
				}
			}
		}
	}
}

// TestMulRowBandsBitwiseOneMul holds the row-band contract the rank
// program's banded rounds and last round rely on: for random shapes,
// cache blocks and cuts of the rows — one of them inside a micro-panel
// of either tile height — visited from a random band onward and
// around, MulPacked over the bands of one packed A against one PackB,
// MulPacked over bands packed one by one (as a panel's owner packs its
// row blocks) and Mul over views of them equal one Mul bit for bit, on
// every tile this binary runs (the portable Go 4×4 alone under noasm)
// and several thread counts.
func TestMulRowBandsBitwiseOneMul(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 8; trial++ {
		m, n, kk := 1+rng.Intn(90), 1+rng.Intn(90), 1+rng.Intn(300)
		a, b := randomStrided(rng, m, kk), randomStrided(rng, kk, n)
		c0 := randomStrided(rng, m, n)
		cuts := []int{0, m, min(m, 4*rng.Intn(m/4+1)+2)}
		for i := rng.Intn(6); i > 0; i-- {
			cuts = append(cuts, rng.Intn(m+1))
		}
		sort.Ints(cuts)
		bands := len(cuts) - 1
		first := rng.Intn(bands)
		for _, tl := range testTiles() {
			mcb, kcb, ncb := 4+rng.Intn(40), 8+rng.Intn(160), 16+rng.Intn(60)
			for _, threads := range []int{1, 2, 5} {
				kern := blockedKernel(threads, tl, mcb, kcb, ncb)
				want, packed, packedBands, views := cloneStrided(c0), cloneStrided(c0), cloneStrided(c0), cloneStrided(c0)
				kern.Mul(want, a, b)
				exact := threads % 2 // pack into buffers of the exact length, or grow from empty
				pa := kern.PackA(make([]float64, exact*kern.PackedALen(m, kk)), a)
				bp := kern.PackB(make([]float64, exact*kern.PackedBLen(kk, n)), b)
				for i := 0; i < bands; i++ {
					lo, hi := cuts[(first+i)%bands], cuts[(first+i)%bands+1]
					kern.MulPacked(packed, pa, bp, lo, hi)
					kern.MulPacked(packedBands.View(lo, 0, hi-lo, n), kern.PackA(nil, a.View(lo, 0, hi-lo, kk)), bp, 0, hi-lo)
					kern.Mul(views.View(lo, 0, hi-lo, n), a.View(lo, 0, hi-lo, kk), b)
				}
				for name, got := range map[string]*Dense{"MulPacked bands": packed,
					"MulPacked on bands packed alone": packedBands, "Mul on band views": views} {
					requireSameBits(t, got.Data, want.Data, "trial %d (%d×%d·%d×%d, %s, %d threads, cuts %v): %s",
						trial, m, kk, kk, n, tl.name, threads, cuts, name)
				}
			}
		}
	}
}

// TestMulPackedEdgeKeepsBorder holds the right-edge store to the live
// columns: for every panel width from 1 to two full B micro-panels and
// heights of one tile, two tiles and a fringe row, and bands starting
// inside a micro-panel, MulPacked into a C view inside a −0 border (3
// columns on the left, 9 on the right) adds exactly the scalar
// reference's bits into the window and leaves every border word —
// where even an added +0 would flip −0 — untouched.
func TestMulPackedEdgeKeepsBorder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tl := range testTiles() {
		kern := newKernel(1, tl)
		for _, m := range []int{tl.mr, 2*tl.mr + 1} {
			for n := 1; n <= 2*tl.nr; n++ {
				for _, kk := range []int{1, 8, 9} {
					a, b := randomStrided(rng, m, kk), randomStrided(rng, kk, n)
					c0 := borderedC(rng, m, n)
					want := cloneStrided(c0)
					mulBlockedRef(window(want), a, b, kc, tl.fused)
					pa, pb := kern.PackA(nil, a), kern.PackB(nil, b)
					for _, cut := range []int{0, 1, m - 1} {
						got := cloneStrided(c0)
						kern.MulPacked(window(got), pa, pb, 0, cut)
						kern.MulPacked(window(got), pa, pb, cut, m)
						requireSameBits(t, got.Data, want.Data, "%d×%d·%d×%d, %s, cut at row %d, C with its border",
							m, kk, kk, n, tl.name, cut)
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
// a smaller power of two, and an odd one — every tile and thread
// count must produce the bits it produces from compact copies, and,
// into a C that is itself a view inside a −0 border, the bits the
// scalar reference produces from those copies — with the package's
// cache blocks and with random small ones. The shapes are ragged, wide,
// tall (131 rows: past one mc block) and small.
func TestKernelStridedViewsBitwiseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	borderRng := rand.New(rand.NewSource(8))
	for _, s := range [][3]int{{29, 37, 70}, {37, 41, 43}, {5, 131, 7}, {131, 5, 9}, {6, 5, 7}} {
		m, n, kk := s[0], s[1], s[2]
		for _, strides := range [][2]int{{65536, 1537}, {1024, 1024}, {1537, 1024}} {
			a := viewInStride(rng, m, kk, strides[0])
			b := viewInStride(rng, kk, n, strides[1])
			compactA, compactB := a.Clone(), b.Clone()
			c0 := randomStrided(rng, m, n)
			bordered0 := borderedC(borderRng, m, n)
			for _, tl := range testTiles() {
				for _, blocks := range [][3]int{{mc, kc, nc}, {4 + rng.Intn(40), 8 + rng.Intn(80), 16 + rng.Intn(40)}} {
					mcb, kcb, ncb := blocks[0], blocks[1], blocks[2]
					ref := cloneStrided(bordered0)
					mulBlockedRef(window(ref), compactA, compactB, kcb, tl.fused)
					for _, threads := range []int{1, 2, 5} {
						want, got := cloneStrided(c0), cloneStrided(c0)
						blockedKernel(threads, tl, mcb, kcb, ncb).Mul(want, compactA, compactB)
						blockedKernel(threads, tl, mcb, kcb, ncb).Mul(got, a, b)
						requireSameBits(t, got.Data, want.Data, "%d×%d×%d, strides %v, %s, blocks %d/%d/%d, %d threads: from views vs from compact copies",
							m, n, kk, strides, tl.name, mcb, kcb, ncb, threads)
						bordered := cloneStrided(bordered0)
						blockedKernel(threads, tl, mcb, kcb, ncb).Mul(window(bordered), a, b)
						requireSameBits(t, bordered.Data, ref.Data, "%d×%d×%d, strides %v, %s, blocks %d/%d/%d, %d threads, views into C with its border",
							m, n, kk, strides, tl.name, mcb, kcb, ncb, threads)
					}
				}
			}
		}
	}
}

// TestPackLayout holds every pack to the micro-panel layout the
// register tiles read, stated as an index formula: word
// (i/mr)·kb·mr + p·mr + i mod mr of packed A is A[ic+i][pc+p], or 0 in
// the padding rows below mb, and word (j/nr)·kb·nr + p·nr + j mod nr of
// packed B is B[pc+p][jc+j], or 0 in the padding columns right of nb.
// It runs the Go loops at every panel width a tile packs — A's 4 and 8,
// B's 4 and 12, so the NEON tile's 8-row A and the AVX2 tile's
// 12-column B panels run on every architecture — and the dispatched
// tile's own packs (the AVX2 tile's assembly) at its widths. Each pack
// gets every extent from 0 to its width + 3 (no panel, a fringe alone,
// one full panel with each fringe) and random larger ones, at depths
// below 40 that take every kb mod 4 in turn, views with a random pad and block origins
// inside them. dst starts as NaN, a few NaN words past its end
// included, so a word a pack skips or overruns fails.
func TestPackLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const tail = 8
	check := func(got []float64, want func(w int) float64, format string, args ...any) {
		t.Helper()
		for w, v := range got[:len(got)-tail] {
			if math.Float64bits(v) != math.Float64bits(want(w)) {
				t.Fatalf(format+": word %d = %v, want %v", append(args, w, v, want(w))...)
			}
		}
		for w, v := range got[len(got)-tail:] {
			if !math.IsNaN(v) {
				t.Fatalf(format+": wrote %v %d words past the packed block", append(args, v, w)...)
			}
		}
	}
	nans := func(n int) []float64 {
		d := make([]float64, n+tail)
		for i := range d {
			d[i] = math.NaN()
		}
		return d
	}
	type pack struct {
		name  string
		pack  func(dst []float64, m *Dense, r0, c0, rows, cols, width int)
		width int
	}
	k := newKernel(1, dispatched)
	aPacks := []pack{{"go", packA, 4}, {"go", packA, 8}, {dispatched.name, func(dst []float64, a *Dense, ic, pc, mb, kb, _ int) {
		k.packA(dst, a, ic, pc, mb, kb)
	}, dispatched.mr}}
	bPacks := []pack{{"go", packB, 4}, {"go", packB, 12}, {dispatched.name, func(dst []float64, b *Dense, pc, jc, kb, nb, _ int) {
		k.packB(dst, b, pc, jc, kb, nb)
	}, dispatched.nr}}
	extents := func(width int) []int {
		var ext []int
		for e := 0; e <= width+3; e++ {
			ext = append(ext, e)
		}
		for trial := 0; trial < 40; trial++ {
			ext = append(ext, rng.Intn(3*width+4))
		}
		return ext
	}
	for _, pk := range aPacks {
		mr := pk.width
		for t, mb := range extents(mr) {
			kb, ic, pc := 4*rng.Intn(10)+t%4, rng.Intn(5), rng.Intn(5)
			a := randomStrided(rng, ic+mb+rng.Intn(3), pc+kb+rng.Intn(3))
			pa := nans((mb + mr - 1) / mr * mr * kb)
			pk.pack(pa[:len(pa)-tail], a, ic, pc, mb, kb, mr)
			check(pa, func(w int) float64 {
				i, p := w/(kb*mr)*mr+w%mr, w%(kb*mr)/mr
				if i >= mb {
					return 0
				}
				return a.Data[(ic+i)*a.Stride+pc+p]
			}, "%s packA mr %d, %d×%d block at (%d, %d), stride %d", pk.name, mr, mb, kb, ic, pc, a.Stride)
		}
	}
	for _, pk := range bPacks {
		nr := pk.width
		for t, nb := range extents(nr) {
			kb, pc, jc := 4*rng.Intn(10)+t%4, rng.Intn(5), rng.Intn(5)
			b := randomStrided(rng, pc+kb+rng.Intn(3), jc+nb+rng.Intn(3))
			pb := nans((nb + nr - 1) / nr * nr * kb)
			pk.pack(pb[:len(pb)-tail], b, pc, jc, kb, nb, nr)
			check(pb, func(w int) float64 {
				j, p := w/(kb*nr)*nr+w%nr, w%(kb*nr)/nr
				if j >= nb {
					return 0
				}
				return b.Data[(pc+p)*b.Stride+jc+j]
			}, "%s packB nr %d, %d×%d block at (%d, %d), stride %d", pk.name, nr, kb, nb, pc, jc, b.Stride)
		}
	}
}

// TestTilesPackInGroupsOfFour holds every tile this build defines to
// panel widths that are multiples of 4, which packA's four-row groups
// assume.
func TestTilesPackInGroupsOfFour(t *testing.T) {
	for _, tl := range []tile{portableTile, dispatched} {
		if tl.mr%4 != 0 || tl.nr%4 != 0 {
			t.Errorf("tile %s is %d×%d, want multiples of 4", tl.name, tl.mr, tl.nr)
		}
	}
}
