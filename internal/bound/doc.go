// Package bound implements the closed-form I/O results of the paper:
// the sequential lower bound 2mnk/√S + mn (Theorem 1), the parallel
// per-processor bound min{2mnk/(p√S) + S, 3(mnk/p)^(2/3)} (Theorem 2),
// and the optimal greedy-schedule tile sizes (Eq. 27/28): the tile that
// maximizes Lemma 4's computational intensity ρ = |V|/(X − R + T), which
// no greedy MMM schedule lifts above √S/2 (Eq. 25). The parallel schedule's
// local domain (Eq. 32) is not here: the executed one is grid.Fit's grid
// with core.StepSize's step, and Table 3's closed form is COSMA's row
// of experiments.Table3.
//
// SequentialGap returns the attainability factor √S/(√(S+1)−1) that
// separates the executable Listing 1 schedule (internal/seq) from
// Theorem 1; the experiment suite asserts measured I/O lands inside
// it.
//
// All sizes are in words (one matrix element = one word), matching the
// paper's use of Hong and Kung's S for fast-memory capacity.
package bound
