// Package layout provides the data-distribution primitives of the
// distributed algorithms: half-open ranges and their balanced
// contiguous splits (the blocked layout of §7.6). No entry point
// accepts a ScaLAPACK block-cyclic operand, so the §7.6 preprocessing
// that would convert one to the blocked layout is not implemented here.
//
// Range, Block and Split are the vocabulary the schedules are compiled
// in: core's round table (newSlab) holds each k slab's Split parts and
// its rounds as Ranges cut at every boundary of either split, and a
// blocked plan's C blocks are cut with Block.
package layout
