// Package layout provides the data-distribution primitives of the
// distributed algorithms: half-open ranges and their balanced
// contiguous splits (the blocked layout of §7.6). No entry point
// accepts a ScaLAPACK block-cyclic operand, so the §7.6 preprocessing
// that would convert one to the blocked layout is not implemented here.
//
// Range, Block and Split are the vocabulary the schedules are compiled
// in: core's plan stores its per-slab round segments as Range lists cut
// at every ownership boundary of the A and B partitions, and cuts a
// blocked plan's C blocks with Block.
package layout
