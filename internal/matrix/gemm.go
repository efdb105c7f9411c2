package matrix

import (
	"runtime"
	"sync"
)

// Default cache-blocking parameters of the packed kernel, following
// the GotoBLAS/BLIS decomposition: the innermost computation is an
// mr×nr register tile updated over a kc-deep packed panel; mc rows of
// A are packed at a time so the A panel stays L2-resident while the
// kc×nc B panel streams from L3/memory. Correctness does not depend
// on the cache-block values mc/kc/nc — every loop handles fringes —
// only throughput does. mr and nr are properties of the micro-kernel
// variant (4×4 for the portable Go tile; 4×8 for AVX2, 8×4 for NEON)
// and set the packed micro-panel widths.
const (
	mr = 4 // register-tile rows of the portable Go variant
	nr = 4 // register-tile cols of the portable Go variant

	mc = 128 // rows of A packed per L2 block
	kc = 256 // panel depth: packed A is mc×kc ≈ 256 KB, one B strip nr×kc ≈ 8 KB
	nc = 512 // cols of B packed per outer block (kc×nc ≈ 1 MB)
)

// Params selects a packed-kernel configuration: the cache-block sizes
// of the three outer loops and the register micro-kernel variant
// (which fixes the tile shape mr×nr). The zero value selects the
// portable defaults; DefaultParams additionally picks the best SIMD
// variant the CPU supports — the one configuration executions run;
// other values exist for the bitwise-identity property tests.
type Params struct {
	MC int // rows of A packed per block (≤ 0: default mc)
	KC int // packed panel depth (≤ 0: default kc)
	NC int // cols of B packed per block (≤ 0: default nc)
	// Variant is the register micro-kernel. An unavailable variant
	// (wrong architecture, noasm build, or unsupported CPU) silently
	// degrades to VariantGo4x4 so explicit parameters stay portable.
	Variant Variant
}

// DefaultParams returns the configuration executions run: the
// package's cache blocks with the best micro-kernel variant available
// on this machine.
func DefaultParams() Params {
	return Params{MC: mc, KC: kc, NC: nc, Variant: BestVariant()}
}

// normalized resolves zero fields to the defaults and unavailable
// variants to the portable fallback.
func (p Params) normalized() Params {
	if p.MC < 1 {
		p.MC = mc
	}
	if p.KC < 1 {
		p.KC = kc
	}
	if p.NC < 1 {
		p.NC = nc
	}
	if !p.Variant.Available() {
		p.Variant = VariantGo4x4
	}
	return p
}

// packBuf is one worker's private packing scratch. The buffers grow to
// the largest block the worker has packed (capped by MC×KC and KC×NC)
// and are reused for every panel of every Mul call, so steady-state
// packing performs zero allocations while small problems — the common
// case for simulated ranks, whose local tiles shrink with p — never
// pay for full-size blocks. Go float64 slices are 8-byte aligned and
// blocks beyond ~32 KB come from the page-aligned large-object
// allocator, which is what the micro-kernel's streaming access wants.
type packBuf struct {
	a []float64 // packed A block: up to MC×KC in mr-wide micro-panels
	b []float64 // packed B block: up to KC×NC in nr-wide micro-panels
	// tile is the SIMD fringe staging buffer: an mr×nr scratch tile
	// the full-width register kernel accumulates into when the live
	// C corner is smaller than the tile, so the asm never writes out
	// of bounds and the accumulation order matches interior tiles.
	tile []float64
}

// grow returns buf with length ≥ n, reallocating only when the
// capacity has never reached n before.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Kernel is a reusable local GEMM context: a micro-kernel variant,
// cache-block parameters, a thread count, and one packing scratch per
// worker. It is the stand-in for a tuned BLAS handle — the distributed
// algorithms draw one per rank from the executor's Arena so repeated
// executions pack into the same buffers. A Kernel is not safe for
// concurrent use; concurrent multiplications need one Kernel each.
type Kernel struct {
	threads int
	par     Params
	mr, nr  int             // register-tile shape of par.Variant
	simd    microKernelFunc // nil: dispatch to the portable Go tile
	workers []packBuf
	// shared holds the packed B block of the threaded path: B is
	// packed once per (jc, pc) block and read concurrently by every
	// worker, so the packing work and footprint do not scale with the
	// thread count.
	shared []float64
}

// NewKernel returns a kernel with the default parameters — the best
// available micro-kernel variant and the stock cache blocks — that
// splits the M dimension of every Mul across up to threads goroutines.
// threads <= 0 means GOMAXPROCS.
func NewKernel(threads int) *Kernel {
	return NewKernelParams(threads, DefaultParams())
}

// NewKernelParams returns a kernel with an explicit configuration.
// Zero Params fields resolve to the defaults; an unavailable Variant
// degrades to the portable Go tile, so parameters written for another
// machine still run.
func NewKernelParams(threads int, par Params) *Kernel {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	par = par.normalized()
	kmr, knr := par.Variant.Dims()
	return &Kernel{
		threads: threads,
		par:     par,
		mr:      kmr, nr: knr,
		simd:    variantKerns[par.Variant],
		workers: make([]packBuf, threads),
	}
}

// Threads returns the kernel's worker bound.
func (k *Kernel) Threads() int { return k.threads }

// Variant returns the register micro-kernel the kernel dispatches to.
func (k *Kernel) Variant() Variant { return k.par.Variant }

// Mul computes C += A·B with the packed, register-blocked kernel,
// splitting the rows of C across the kernel's workers. Each (jc, pc)
// block of B is packed exactly once into the shared buffer and read
// concurrently by every worker; workers own disjoint, micro-panel-
// aligned row ranges of C/A with private A pack buffers, so the only
// synchronization is one WaitGroup per B block and the per-element
// accumulation order is identical to the serial kernel's (the result
// is bitwise-reproducible for any thread count).
func (k *Kernel) Mul(c, a, b *Dense) {
	checkMulShapes(c, a, b)
	m := a.Rows
	if m == 0 || b.Cols == 0 || a.Cols == 0 {
		return
	}
	// One contiguous row chunk per worker, each a whole number of
	// micro-panels so no register tile straddles two workers.
	t := k.threads
	panels := (m + k.mr - 1) / k.mr
	if t > panels {
		t = panels
	}
	if t <= 1 {
		k.gemm(&k.workers[0], c, a, b, 0, m)
		return
	}
	chunk := ((panels + t - 1) / t) * k.mr
	kk, n := a.Cols, b.Cols
	for jc := 0; jc < n; jc += k.par.NC {
		nb := min(k.par.NC, n-jc)
		for pc := 0; pc < kk; pc += k.par.KC {
			kb := min(k.par.KC, kk-pc)
			k.shared = grow(k.shared, (nb+k.nr-1)/k.nr*k.nr*kb)
			packB(k.shared, b, pc, jc, kb, nb, k.nr)
			var wg sync.WaitGroup
			for w := 0; w < t; w++ {
				lo := w * chunk
				if lo >= m {
					break
				}
				hi := min(lo+chunk, m)
				wg.Add(1)
				go func(pb *packBuf, lo, hi int) {
					defer wg.Done()
					for ic := lo; ic < hi; ic += k.par.MC {
						mb := min(k.par.MC, hi-ic)
						pb.a = grow(pb.a, (mb+k.mr-1)/k.mr*k.mr*kb)
						packA(pb.a, a, ic, pc, mb, kb, k.mr)
						k.macroKernel(pb, pb.a, k.shared, c, ic, jc, mb, nb, kb)
					}
				}(&k.workers[w], lo, hi)
			}
			wg.Wait()
		}
	}
}

// gemm runs the serial five-loop blocked algorithm over the row range
// [rowLo, rowHi) of C and A: for every KC×NC block of B (packed once,
// reused by every row block) and every MC×KC block of A (packed, then
// swept by the register tiles), the micro-kernel updates C in place.
func (k *Kernel) gemm(pb *packBuf, c, a, b *Dense, rowLo, rowHi int) {
	kk, n := a.Cols, b.Cols
	for jc := 0; jc < n; jc += k.par.NC {
		nb := min(k.par.NC, n-jc)
		for pc := 0; pc < kk; pc += k.par.KC {
			kb := min(k.par.KC, kk-pc)
			pb.b = grow(pb.b, (nb+k.nr-1)/k.nr*k.nr*kb)
			packB(pb.b, b, pc, jc, kb, nb, k.nr)
			for ic := rowLo; ic < rowHi; ic += k.par.MC {
				mb := min(k.par.MC, rowHi-ic)
				pb.a = grow(pb.a, (mb+k.mr-1)/k.mr*k.mr*kb)
				packA(pb.a, a, ic, pc, mb, kb, k.mr)
				k.macroKernel(pb, pb.a, pb.b, c, ic, jc, mb, nb, kb)
			}
		}
	}
}

// packA copies the mb×kb block of A at (ic, pc) into mr-wide
// micro-panels: panel i holds rows [ic+i·mr, ic+i·mr+mr) stored
// column-by-column, so the micro-kernel reads mr values of A per k-step
// from consecutive memory. Short fringe panels are zero-padded to mr so
// the register kernel can always run full-width.
func packA(dst []float64, a *Dense, ic, pc, mb, kb, mr int) {
	pos := 0
	for i := 0; i < mb; i += mr {
		h := min(mr, mb-i)
		for p := 0; p < kb; p++ {
			base := (ic+i)*a.Stride + pc + p
			for r := 0; r < h; r++ {
				dst[pos] = a.Data[base+r*a.Stride]
				pos++
			}
			for r := h; r < mr; r++ {
				dst[pos] = 0
				pos++
			}
		}
	}
}

// packB copies the kb×nb block of B at (pc, jc) into nr-wide
// micro-panels: panel j holds columns [jc+j·nr, jc+j·nr+nr) stored
// row-by-row — the transpose-free mirror of packA — zero-padding short
// fringe panels to nr.
func packB(dst []float64, b *Dense, pc, jc, kb, nb, nr int) {
	pos := 0
	for j := 0; j < nb; j += nr {
		w := min(nr, nb-j)
		for p := 0; p < kb; p++ {
			base := (pc+p)*b.Stride + jc + j
			for r := 0; r < w; r++ {
				dst[pos] = b.Data[base+r]
				pos++
			}
			for r := w; r < nr; r++ {
				dst[pos] = 0
				pos++
			}
		}
	}
}

// macroKernel sweeps the packed mb×kb A block against the packed kb×nb
// B block, one B micro-panel at a time. A SIMD variant takes every
// full-height tile of a full-width panel in one call — the assembly
// walks the A block and C itself — so Go dispatches once per panel,
// not once per tile; the portable Go tile keeps its per-tile loop.
// Fringe tiles (right and bottom edges) accumulate full-width into
// zero-padded scratch — the Go tile in its accumulator array, the SIMD
// kernels in the worker's staging tile — and write back only the live
// h×w corner, preserving the per-element accumulation order of
// interior tiles.
func (k *Kernel) macroKernel(pb *packBuf, apack, bpack []float64, c *Dense, ic, jc, mb, nb, kb int) {
	mr, nr := k.mr, k.nr
	full := mb / mr // full-height tiles: one SIMD sweep per full-width panel
	for j := 0; j < nb; j += nr {
		w := min(nr, nb-j)
		bp := bpack[(j/nr)*kb*nr:]
		i := 0
		if k.simd != nil && w == nr && full > 0 {
			k.simd(&c.Data[ic*c.Stride+jc+j], c.Stride, kb, &apack[0], &bp[0], full)
			i = full * mr
		}
		for ; i < mb; i += mr {
			h := min(mr, mb-i)
			ap := apack[(i/mr)*kb*mr:]
			switch {
			case k.simd != nil:
				k.simdEdge(pb, c, ic+i, jc+j, h, w, kb, ap, bp)
			case h == mr && w == nr:
				microKernel4x4(c, ic+i, jc+j, kb, ap, bp)
			default:
				microKernelEdge(c, ic+i, jc+j, h, w, kb, ap, bp)
			}
		}
	}
}

// simdEdge runs the SIMD register kernel on a fringe tile: the full
// mr×nr tile is accumulated into a zeroed staging buffer (the packed
// panels are zero-padded, so the dead lanes stay zero) and the live
// h×w corner is added into C — the same accumulate-then-add sequence
// as an interior tile, so fringes stay bitwise consistent.
func (k *Kernel) simdEdge(pb *packBuf, c *Dense, ci, cj, h, w, kb int, ap, bp []float64) {
	n := k.mr * k.nr
	pb.tile = grow(pb.tile, n)
	tile := pb.tile
	for i := range tile {
		tile[i] = 0
	}
	k.simd(&tile[0], k.nr, kb, &ap[0], &bp[0], 1)
	for i := 0; i < h; i++ {
		row := c.Data[(ci+i)*c.Stride+cj : (ci+i)*c.Stride+cj+w]
		for j := range row {
			row[j] += tile[i*k.nr+j]
		}
	}
}

// microKernel4x4 is the portable register-blocked inner loop: a 4×4
// tile of C held in sixteen scalar accumulators, updated by one rank-1
// step per iteration over the kb-deep packed panels (8 loads and 16
// multiply-adds per step, all from contiguous memory).
func microKernel4x4(c *Dense, ci, cj, kb int, ap, bp []float64) {
	var (
		c00, c01, c02, c03 float64
		c10, c11, c12, c13 float64
		c20, c21, c22, c23 float64
		c30, c31, c32, c33 float64
	)
	ap = ap[: kb*mr : kb*mr]
	bp = bp[: kb*nr : kb*nr]
	for p := 0; p < kb; p++ {
		a := ap[p*mr : p*mr+mr : p*mr+mr]
		b := bp[p*nr : p*nr+nr : p*nr+nr]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	row := c.Data[ci*c.Stride+cj:]
	row[0] += c00
	row[1] += c01
	row[2] += c02
	row[3] += c03
	row = c.Data[(ci+1)*c.Stride+cj:]
	row[0] += c10
	row[1] += c11
	row[2] += c12
	row[3] += c13
	row = c.Data[(ci+2)*c.Stride+cj:]
	row[0] += c20
	row[1] += c21
	row[2] += c22
	row[3] += c23
	row = c.Data[(ci+3)*c.Stride+cj:]
	row[0] += c30
	row[1] += c31
	row[2] += c32
	row[3] += c33
}

// microKernelEdge handles the h×w fringe tiles (h ≤ mr, w ≤ nr) of the
// portable Go variant. The packed panels are zero-padded to full
// micro-panel width, so it can accumulate full-width and write back
// only the live h×w corner.
func microKernelEdge(c *Dense, ci, cj, h, w, kb int, ap, bp []float64) {
	var acc [mr][nr]float64
	for p := 0; p < kb; p++ {
		a := ap[p*mr : p*mr+mr : p*mr+mr]
		b := bp[p*nr : p*nr+nr : p*nr+nr]
		for i := 0; i < mr; i++ {
			ai := a[i]
			acc[i][0] += ai * b[0]
			acc[i][1] += ai * b[1]
			acc[i][2] += ai * b[2]
			acc[i][3] += ai * b[3]
		}
	}
	for i := 0; i < h; i++ {
		row := c.Data[(ci+i)*c.Stride+cj : (ci+i)*c.Stride+cj+w]
		for j := range row {
			row[j] += acc[i][j]
		}
	}
}

// defaultKernels pools serial kernels behind the package-level Mul so
// library callers (and concurrent rank programs that have not been
// given an arena kernel) get packed performance with steady-state-free
// allocation and no hidden goroutines.
var defaultKernels = sync.Pool{New: func() any { return NewKernel(1) }}

// Mul computes C += A·B with the packed, register-blocked kernel
// (dispatching to the best SIMD micro-kernel the CPU supports). A is
// m×k, B is k×n and C is m×n; any shape mismatch panics. Mul is the
// local compute kernel used by every distributed algorithm (the
// stand-in for the paper's MKL dgemm); hot paths that multiply
// repeatedly should hold a Kernel (or draw one from an Arena) instead,
// which also unlocks multi-goroutine execution and tuned parameters.
func Mul(c, a, b *Dense) {
	k := defaultKernels.Get().(*Kernel)
	k.Mul(c, a, b)
	defaultKernels.Put(k)
}
