package layout

import "fmt"

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
