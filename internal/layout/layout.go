package layout

import (
	"fmt"

	"cosma/internal/matrix"
)

// Range is a half-open index interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the interval length.
func (r Range) Len() int { return r.Hi - r.Lo }

// Intersect returns the overlap of two ranges (possibly empty).
func (r Range) Intersect(o Range) Range {
	lo, hi := r.Lo, r.Hi
	if o.Lo > lo {
		lo = o.Lo
	}
	if o.Hi < hi {
		hi = o.Hi
	}
	if hi < lo {
		hi = lo
	}
	return Range{lo, hi}
}

// Split partitions [0, extent) into parts balanced contiguous ranges whose
// lengths differ by at most one (part i is [i·extent/parts, (i+1)·extent/parts)).
func Split(extent, parts int) []Range {
	if extent < 0 || parts < 1 {
		panic(fmt.Sprintf("layout: Split(%d, %d)", extent, parts))
	}
	out := make([]Range, parts)
	for i := 0; i < parts; i++ {
		out[i] = Block(extent, parts, i)
	}
	return out
}

// Block returns the i-th of parts balanced contiguous ranges of [0, extent).
func Block(extent, parts, i int) Range {
	if extent < 0 || parts < 1 || i < 0 || i >= parts {
		panic(fmt.Sprintf("layout: Block(%d, %d, %d)", extent, parts, i))
	}
	return Range{Lo: i * extent / parts, Hi: (i + 1) * extent / parts}
}

// RowDist describes an R-row matrix block whose rows are distributed in
// balanced contiguous bands over an ordered team of machine ranks.
type RowDist struct {
	Rows int   // number of rows distributed
	Team []int // global rank ids, in band order
}

// Band returns the row range owned by team member idx.
func (d RowDist) Band(idx int) Range { return Block(d.Rows, len(d.Team), idx) }

// indexOf returns the team position of global rank id, or -1.
func (d RowDist) indexOf(id int) int {
	for i, r := range d.Team {
		if r == id {
			return i
		}
	}
	return -1
}

// BlockCyclic is a ScaLAPACK-style two-dimensional block-cyclic layout
// descriptor: an R×C matrix in rb×cb blocks dealt cyclically over a
// pr×pc process grid (§7.6).
type BlockCyclic struct {
	R, C   int // global matrix dimensions
	RB, CB int // block dimensions
	PR, PC int // process grid
}

// Owner returns the process-grid coordinates owning global element (i, j).
func (b BlockCyclic) Owner(i, j int) (pr, pc int) {
	b.check(i, j)
	return (i / b.RB) % b.PR, (j / b.CB) % b.PC
}

// LocalIndex returns the element's (row, col) in its owner's local array.
func (b BlockCyclic) LocalIndex(i, j int) (li, lj int) {
	b.check(i, j)
	li = (i/(b.RB*b.PR))*b.RB + i%b.RB
	lj = (j/(b.CB*b.PC))*b.CB + j%b.CB
	return li, lj
}

// LocalSize returns the local array dimensions at grid position (pr, pc).
func (b BlockCyclic) LocalSize(pr, pc int) (rows, cols int) {
	if pr < 0 || pr >= b.PR || pc < 0 || pc >= b.PC {
		panic(fmt.Sprintf("layout: grid position (%d,%d) out of %d×%d", pr, pc, b.PR, b.PC))
	}
	return cyclicLen(b.R, b.RB, b.PR, pr), cyclicLen(b.C, b.CB, b.PC, pc)
}

// cyclicLen counts the indices of [0, n) whose block (i/bs) ≡ p mod np.
func cyclicLen(n, bs, np, p int) int {
	full := n / (bs * np) * bs
	rem := n % (bs * np)
	lo := p * bs
	extra := rem - lo
	if extra < 0 {
		extra = 0
	}
	if extra > bs {
		extra = bs
	}
	return full + extra
}

func (b BlockCyclic) check(i, j int) {
	if i < 0 || i >= b.R || j < 0 || j >= b.C {
		panic(fmt.Sprintf("layout: element (%d,%d) out of %d×%d", i, j, b.R, b.C))
	}
}

// Distribute slices a global matrix into the local arrays of every grid
// position under the block-cyclic layout. It is the test oracle for the
// descriptor math and the entry point for ScaLAPACK-format ingestion.
func (b BlockCyclic) Distribute(global *matrix.Dense) [][]*matrix.Dense {
	if global.Rows != b.R || global.Cols != b.C {
		panic(fmt.Sprintf("layout: matrix %d×%d does not match descriptor %d×%d",
			global.Rows, global.Cols, b.R, b.C))
	}
	out := make([][]*matrix.Dense, b.PR)
	for pr := 0; pr < b.PR; pr++ {
		out[pr] = make([]*matrix.Dense, b.PC)
		for pc := 0; pc < b.PC; pc++ {
			r, c := b.LocalSize(pr, pc)
			out[pr][pc] = matrix.New(r, c)
		}
	}
	for i := 0; i < b.R; i++ {
		for j := 0; j < b.C; j++ {
			pr, pc := b.Owner(i, j)
			li, lj := b.LocalIndex(i, j)
			out[pr][pc].Set(li, lj, global.At(i, j))
		}
	}
	return out
}

// Collect is the inverse of Distribute: it reassembles the global matrix
// from the per-position local arrays.
func (b BlockCyclic) Collect(locals [][]*matrix.Dense) *matrix.Dense {
	global := matrix.New(b.R, b.C)
	for i := 0; i < b.R; i++ {
		for j := 0; j < b.C; j++ {
			pr, pc := b.Owner(i, j)
			li, lj := b.LocalIndex(i, j)
			global.Set(i, j, locals[pr][pc].At(li, lj))
		}
	}
	return global
}
