package matrix

import (
	"fmt"
	"runtime"
	"sync"
)

// Cache-blocking parameters of the packed kernel, following the
// GotoBLAS/BLIS decomposition: the innermost computation is an mr×nr
// register tile updated over a kc-deep packed panel; mc rows of A are
// packed at a time so the A panel stays L2-resident while the kc×nc B
// panel streams from L3/memory. Correctness does not depend on the
// cache-block values mc/kc/nc — every loop handles fringes — only
// throughput does. mr and nr are the portable Go tile's; the dispatched
// tile (4×12 for AVX2, 8×4 for NEON) sets the packed micro-panel widths.
const (
	mr = 4 // register-tile rows of the portable Go tile
	nr = 4 // register-tile cols of the portable Go tile

	mc = 128 // rows of A packed per L2 block
	kc = 256 // panel depth: packed A is mc×kc = 256 KB, one B strip nr×kc 8 KB (nr 4) or 24 KB (nr 12)
	nc = 512 // cols of B packed per outer block (kc×nc ≈ 1 MB)
)

// packBuf is one worker's private packing scratch. The buffers grow to
// the largest block the worker has packed (capped by mc×kc) and are
// reused for every panel of every Mul call, so steady-state packing
// performs zero allocations while small problems — the common case for
// simulated ranks, whose local tiles shrink with p — never pay for
// full-size blocks. Go float64 slices are 8-byte aligned and blocks
// beyond ~32 KB come from the page-aligned large-object allocator,
// which is what the micro-kernel's streaming access wants.
type packBuf struct {
	a []float64 // packed A block: up to mc×kc in mr-wide micro-panels
	// tile is the SIMD fringe staging buffer: up to edgeTiles mr×nr
	// scratch tiles, stacked, the full-width register kernel
	// accumulates into when the live C corner is smaller than its
	// tiles, so the asm never writes out of bounds and the
	// accumulation order matches interior tiles.
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

// Kernel is a reusable local GEMM context: the process's register tile,
// the cache blocks, a thread count, and one packing scratch per worker.
// It is the stand-in for a BLAS handle — the distributed algorithms
// draw one per rank from the executor's Arena so repeated executions
// pack into the same buffers. A Kernel is not safe for concurrent use;
// concurrent multiplications need one Kernel each.
type Kernel struct {
	threads    int
	tile       tile
	mc, kc, nc int // the package's cache blocks; tests shrink them
	workers    []packBuf
	// shared holds the packed B block: B is packed once per (jc, pc)
	// block and read concurrently by every worker, so the packing work
	// and footprint do not scale with the thread count.
	shared []float64
}

// NewKernel returns a kernel that runs the dispatched register tile
// with the package's cache blocks and splits the M dimension of every
// Mul across up to threads goroutines. threads <= 0 means GOMAXPROCS.
func NewKernel(threads int) *Kernel { return newKernel(threads, dispatched) }

func newKernel(threads int, tl tile) *Kernel {
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	return &Kernel{threads: threads, tile: tl, mc: mc, kc: kc, nc: nc, workers: make([]packBuf, threads)}
}

// Threads returns the kernel's worker bound.
func (k *Kernel) Threads() int { return k.threads }

// Mul computes C += A·B with the packed, register-blocked kernel: for
// every kc×nc block of B (packed once into the shared buffer) the rows
// of C are split across the kernel's workers, and each packs its mc×kc
// blocks of A and sweeps them with the register tile. Workers own
// disjoint, micro-panel-aligned row ranges of C/A with private A pack
// buffers, so the only synchronization is one WaitGroup per B block —
// none with one worker, which runs inline — and the per-element
// accumulation order does not depend on the worker count (the result
// is bitwise-reproducible for any thread count).
func (k *Kernel) Mul(c, a, b *Dense) {
	checkMulShapes(c, a, b)
	k.mulRows(c, a, PackedA{}, b, nil, a.Cols, 0, a.Rows)
}

// PackedA is an A operand packed whole into a kernel's micro-panels by
// Kernel.PackA: for every kc-deep block of its columns, in order, all
// its rows in mr-row micro-panels, the last zero-padded, back to back
// in Data.
type PackedA struct {
	Data       []float64 // the buffer PackA packed into; the caller's to recycle
	Rows, Cols int
}

// PackedB is a B operand packed whole into a kernel's micro-panels by
// Kernel.PackB: every (jc, pc) cache block, in the order Mul visits
// them, back to back in Data.
type PackedB struct {
	Data       []float64 // the buffer PackB packed into; the caller's to recycle
	Rows, Cols int
}

// PanelRows returns the height of the kernel's A micro-panels. A
// MulPacked row range whose ends lie on multiples of it, counted from
// the packed A's first row, or at its last row, stages no partial
// panel.
func (k *Kernel) PanelRows() int { return k.tile.mr }

// PackedALen returns the words PackA packs a rows×cols A into: its rows
// padded to whole micro-panels.
func (k *Kernel) PackedALen(rows, cols int) int { return k.paddedRows(rows) * cols }

// PackedBLen returns the words PackB packs a rows×cols B into: every
// cache block's columns padded to whole micro-panels.
func (k *Kernel) PackedBLen(rows, cols int) int {
	return (cols/k.nc*k.padded(k.nc) + k.padded(cols%k.nc)) * rows
}

// padded rounds a block width up to whole B micro-panels.
func (k *Kernel) padded(nb int) int { return (nb + k.tile.nr - 1) / k.tile.nr * k.tile.nr }

// paddedRows rounds a height up to whole A micro-panels.
func (k *Kernel) paddedRows(mb int) int { return (mb + k.tile.mr - 1) / k.tile.mr * k.tile.mr }

// PackA packs all of a into dst (grown when shorter than
// PackedALen(a.Rows, a.Cols)) for MulPacked: a panel packed once where
// it lives is multiplied where it lies by every rank that reads it.
func (k *Kernel) PackA(dst []float64, a *Dense) PackedA {
	dst = grow(dst, k.PackedALen(a.Rows, a.Cols))
	rows := k.paddedRows(a.Rows)
	for pc := 0; pc < a.Cols; pc += k.kc {
		k.packA(dst[pc*rows:], a, 0, pc, a.Rows, min(k.kc, a.Cols-pc))
	}
	return PackedA{Data: dst, Rows: a.Rows, Cols: a.Cols}
}

// PackB packs all of b into dst (grown when shorter than
// PackedBLen(b.Rows, b.Cols)) for MulPacked, so a product multiplied row
// band by row band packs B once instead of once per band.
func (k *Kernel) PackB(dst []float64, b *Dense) PackedB {
	dst = grow(dst, k.PackedBLen(b.Rows, b.Cols))
	rest := dst
	for jc := 0; jc < b.Cols; jc += k.nc {
		nb := min(k.nc, b.Cols-jc)
		for pc := 0; pc < b.Rows; pc += k.kc {
			kb := min(k.kc, b.Rows-pc)
			k.packB(rest, b, pc, jc, kb, nb)
			rest = rest[k.padded(nb)*kb:]
		}
	}
	return PackedB{Data: dst, Rows: b.Rows, Cols: b.Cols}
}

// MulPacked computes rows [lo, hi) of C += A·B from an A that PackA and
// a B that PackB packed, with this kernel's tile and cache blocks. The
// per-element accumulation order does not depend on where a row range
// starts — a range that starts inside a micro-panel stages that
// panel's live rows as the top of a zero-padded one, and fringe tiles
// accumulate full-width like interior ones — nor on when or where the
// operands were packed, so MulPacked over any row bands that cover C
// once is bitwise one Mul.
func (k *Kernel) MulPacked(c *Dense, a PackedA, b PackedB, lo, hi int) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols ||
		len(a.Data) < k.PackedALen(a.Rows, a.Cols) || len(b.Data) < k.PackedBLen(b.Rows, b.Cols) {
		panic(fmt.Sprintf("matrix: MulPacked shapes C %d×%d, packed A %d×%d in %d words, packed B %d×%d in %d words",
			c.Rows, c.Cols, a.Rows, a.Cols, len(a.Data), b.Rows, b.Cols, len(b.Data)))
	}
	k.mulRows(c, nil, a, nil, b.Data, a.Cols, lo, hi)
}

// mulRows is Mul and MulPacked on rows [lo, hi) of a kk-deep product: A
// comes from a, packed one mc-row block at a time into the worker's
// buffer, or (a nil) from pa; B from b, packed one (jc, pc) block at a
// time into the shared buffer, or (b nil) from packed, whose blocks it
// takes in the order PackB packed them.
func (k *Kernel) mulRows(c, a *Dense, pa PackedA, b *Dense, packed []float64, kk, lo, hi int) {
	rows := pa.Rows
	if a != nil {
		rows = a.Rows
	}
	if lo < 0 || lo > hi || hi > rows {
		panic(fmt.Sprintf("matrix: rows [%d, %d) outside %d", lo, hi, rows))
	}
	n := c.Cols
	if hi == lo || n == 0 || kk == 0 {
		return
	}
	// One contiguous row chunk per worker, each a whole number of
	// micro-panels counted from the panel holding lo, so no register
	// tile straddles two workers.
	mr := k.tile.mr
	base := lo - lo%mr
	panels := (hi - base + mr - 1) / mr
	t := min(k.threads, panels)
	chunk := (panels + t - 1) / t * mr
	for jc := 0; jc < n; jc += k.nc {
		nb := min(k.nc, n-jc)
		for pc := 0; pc < kk; pc += k.kc {
			kb := min(k.kc, kk-pc)
			words := k.padded(nb) * kb
			var bp []float64
			if b == nil {
				bp, packed = packed[:words], packed[words:]
			} else {
				k.shared = grow(k.shared, words)
				k.packB(k.shared, b, pc, jc, kb, nb)
				bp = k.shared
			}
			if t == 1 {
				k.rows(&k.workers[0], c, a, pa, lo, hi, pc, jc, kb, nb, bp)
				continue
			}
			// The loop variables pc, jc and bp go in as arguments:
			// captured, they would move to the heap every iteration,
			// inline path too.
			var wg sync.WaitGroup
			for w := 0; base+w*chunk < hi; w++ {
				wg.Add(1)
				go func(pb *packBuf, lo, hi, pc, jc int, bp []float64) {
					defer wg.Done()
					k.rows(pb, c, a, pa, lo, hi, pc, jc, kb, nb, bp)
				}(&k.workers[w], max(lo, base+w*chunk), min(base+(w+1)*chunk, hi), pc, jc, bp)
			}
			wg.Wait()
		}
	}
}

// rows is one worker's share of a (jc, pc) block: every mc-row block
// of A in [lo, hi) — packed into the worker's buffer, or read where
// PackA put it — is swept against the packed B block bp.
func (k *Kernel) rows(pb *packBuf, c, a *Dense, pa PackedA, lo, hi, pc, jc, kb, nb int, bp []float64) {
	mr := k.tile.mr
	if a != nil {
		for ic := lo; ic < hi; ic += k.mc {
			mb := min(k.mc, hi-ic)
			pb.a = grow(pb.a, (mb+mr-1)/mr*mr*kb)
			k.packA(pb.a, a, ic, pc, mb, kb)
			k.macroKernel(pb, pb.a, c, ic, jc, mb, nb, kb, bp)
		}
		return
	}
	ap := pa.Data[pc*k.paddedRows(pa.Rows):] // this kc block's micro-panels
	if skip := lo % mr; skip != 0 {
		// lo is inside a micro-panel: its live rows become the top of a
		// zero-padded staged panel, a fringe tile like any other.
		h := min(hi, lo-skip+mr) - lo
		src := ap[lo/mr*mr*kb:][:mr*kb]
		pb.a = grow(pb.a, mr*kb)
		clear(pb.a)
		for p := 0; p < kb; p++ {
			copy(pb.a[p*mr:p*mr+h], src[p*mr+skip:])
		}
		k.macroKernel(pb, pb.a, c, lo, jc, h, nb, kb, bp)
		lo += h
	}
	step := max(mr, k.mc/mr*mr) // blocks start on a micro-panel
	for ic := lo; ic < hi; ic += step {
		k.macroKernel(pb, ap[ic/mr*mr*kb:], c, ic, jc, min(step, hi-ic), nb, kb, bp)
	}
}

// packA is the packA function at the kernel's mr, by the tile's assembly
// where it has one: its full micro-panels in one call, the fringe panel
// by packAFringe. The bounds are checked here, so a bad block panics
// before the assembly reads or writes a word.
func (k *Kernel) packA(dst []float64, a *Dense, ic, pc, mb, kb int) {
	mr := k.tile.mr
	if k.tile.packA == nil {
		packA(dst, a, ic, pc, mb, kb, mr)
		return
	}
	full := mb - mb%mr
	if full > 0 && kb > 0 {
		_ = dst[full*kb-1]
		_ = a.Data[(ic+full-1)*a.Stride+pc+kb-1]
		k.tile.packA(&dst[0], &a.Data[ic*a.Stride+pc], a.Stride, kb, full/mr)
	}
	packAFringe(dst[full*kb:], a, ic+full, pc, mb-full, kb, mr)
}

// packB is the packB function at the kernel's nr, by the tile's assembly,
// fringe panel included, where it has one.
func (k *Kernel) packB(dst []float64, b *Dense, pc, jc, kb, nb int) {
	nr := k.tile.nr
	if k.tile.packB == nil {
		packB(dst, b, pc, jc, kb, nb, nr)
		return
	}
	if kb == 0 || nb == 0 {
		return
	}
	_ = dst[k.padded(nb)*kb-1]
	_ = b.Data[(pc+kb-1)*b.Stride+jc+nb-1]
	k.tile.packB(&dst[0], &b.Data[pc*b.Stride+jc], b.Stride, kb, nb/nr, nb%nr)
}

// packA copies the mb×kb block of A at (ic, pc) into mr-wide
// micro-panels: panel i holds rows [ic+i·mr, ic+i·mr+mr) stored
// column-by-column, so the micro-kernel reads mr values of A per k-step
// from consecutive memory. A full panel is filled four rows at a time:
// the four rows are read as streams, left to right, and each k-step
// writes one 4-word group (mr is a multiple of 4). The short fringe
// panel (packAFringe) is gathered word by word and zero-padded to mr so
// the register kernel can always run full-width.
func packA(dst []float64, a *Dense, ic, pc, mb, kb, mr int) {
	full := mb - mb%mr
	for i := 0; i < full; i += mr {
		panel := dst[i*kb : (i+mr)*kb]
		for r := 0; r < mr; r += 4 {
			at := (ic+i+r)*a.Stride + pc
			a0 := a.Data[at : at+kb]
			a1 := a.Data[at+a.Stride:][:len(a0)]
			a2 := a.Data[at+2*a.Stride:][:len(a0)]
			a3 := a.Data[at+3*a.Stride:][:len(a0)]
			for p, v := range a0 {
				g := panel[p*mr+r:][:4]
				g[0], g[1], g[2], g[3] = v, a1[p], a2[p], a3[p]
			}
		}
	}
	packAFringe(dst[full*kb:], a, ic+full, pc, mb-full, kb, mr)
}

// packAFringe packs the h < mr rows of A at (ic, pc), kb deep, as one
// micro-panel zero-padded to mr rows; h = 0 packs nothing.
func packAFringe(dst []float64, a *Dense, ic, pc, h, kb, mr int) {
	if h == 0 {
		return
	}
	pos := 0
	for p := 0; p < kb; p++ {
		base := ic*a.Stride + pc + p
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

// packB copies the kb×nb block of B at (pc, jc) into nr-wide
// micro-panels: panel j holds columns [jc+j·nr, jc+j·nr+nr) stored
// row-by-row — the transpose-free mirror of packA. The full panels are
// filled row by row: each B row is read once, left to right, and each
// of its nr-word pieces is copied to row p of the micro-panel it
// belongs to. The short fringe panel is copied on its own, zero-padded
// to nr.
func packB(dst []float64, b *Dense, pc, jc, kb, nb, nr int) {
	full := nb - nb%nr
	for p := 0; p < kb; p++ {
		at := (pc+p)*b.Stride + jc
		row := b.Data[at : at+full]
		for j := 0; j < full; j += nr {
			copy(dst[j*kb+p*nr:], row[j:j+nr]) // row p of the panel at column j
		}
	}
	pos := full * kb
	for j := full; j < nb; j += nr {
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

// macroKernel sweeps the packed mb×kb A block ap against the packed
// kb×nb B block bp, one B micro-panel at a time. A SIMD tile takes every
// full-height tile of a panel in one call — the assembly walks the A
// block and C itself, and a tile that knows the live width of a narrow
// right-edge panel adds just those columns into C — and the rest (a
// short bottom tile, or a narrow panel of a tile that does not know its
// width) staged, up to edgeTiles tiles per call, so Go dispatches a few
// times per panel, not once per tile; the portable Go tile keeps its
// per-tile loop. Staged fringe tiles accumulate full-width into
// zero-padded scratch — the Go tile in its accumulator array, the SIMD
// kernels in the worker's staging buffer — and write back only the live
// corner, preserving the per-element accumulation order of interior
// tiles.
func (k *Kernel) macroKernel(pb *packBuf, ap []float64, c *Dense, ic, jc, mb, nb, kb int, packed []float64) {
	mr, nr, sweep := k.tile.mr, k.tile.nr, k.tile.sweep
	full := mb / mr // full-height tiles: one SIMD sweep per panel
	for j := 0; j < nb; j += nr {
		w := min(nr, nb-j)
		bp := packed[(j/nr)*kb*nr:]
		if sweep == nil {
			for i := 0; i < mb; i += mr {
				h := min(mr, mb-i)
				tp := ap[(i/mr)*kb*mr:]
				if h == mr && w == nr {
					microKernel4x4(c, ic+i, jc+j, kb, tp, bp)
				} else {
					microKernelEdge(c, ic+i, jc+j, h, w, kb, tp, bp)
				}
			}
			continue
		}
		i := 0
		if full > 0 && (w == nr || k.tile.narrow) {
			sweep(&c.Data[ic*c.Stride+jc+j], c.Stride, kb, &ap[0], &bp[0], full, w)
			i = full * mr
		}
		if i < mb {
			k.simdEdge(pb, c, ic+i, jc+j, mb-i, w, kb, ap[(i/mr)*kb*mr:], bp)
		}
	}
}

// edgeTiles is how many fringe tiles simdEdge stages per sweep: few
// enough that every worker's staging buffer stays 8·mr·nr words, many
// enough that a narrow right-edge panel costs a few calls, not one per
// tile.
const edgeTiles = 8

// simdEdge runs the SIMD register kernel on the fringe tiles of one B
// micro-panel, h rows deep from A micro-panel ap on: up to edgeTiles
// full mr×nr tiles at a time are accumulated in one sweep into a
// zeroed staging buffer (the packed B panel is zero-padded, so its dead
// lanes stay zero) and their live rows' w columns are added into C —
// the same accumulate-then-add sequence as an interior tile, so fringes
// stay bitwise consistent.
func (k *Kernel) simdEdge(pb *packBuf, c *Dense, ci, cj, h, w, kb int, ap, bp []float64) {
	mr, nr := k.tile.mr, k.tile.nr
	for top := 0; top < h; top += edgeTiles * mr {
		rows := min(edgeTiles*mr, h-top)
		tiles := (rows + mr - 1) / mr
		pb.tile = grow(pb.tile, tiles*mr*nr)
		staged := pb.tile
		clear(staged)
		k.tile.sweep(&staged[0], nr, kb, &ap[top*kb], &bp[0], tiles, nr)
		for i := 0; i < rows; i++ {
			row := c.Data[(ci+top+i)*c.Stride+cj : (ci+top+i)*c.Stride+cj+w]
			for j := range row {
				row[j] += staged[i*nr+j]
			}
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
// portable Go tile. The packed panels are zero-padded to full
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
