// Package layout provides the data-distribution primitives shared by
// the distributed algorithms: balanced contiguous splits (the blocked
// layout of §7.6) and a generic redistribution of row-distributed
// submatrices used by the recursive (CARMA) algorithm. No entry point
// accepts a ScaLAPACK block-cyclic operand, so the §7.6 preprocessing
// that would convert one to the blocked layout is not implemented here.
//
// Range and Split are the vocabulary the round schedules are compiled
// in: COSMA's plan stores its per-slab round segments as Range lists
// cut at every ownership boundary of the A and B partitions.
package layout
