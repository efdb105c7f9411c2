// Package grid provides processor grids for parallel MMM schedules and
// every policy that chooses one. Fit is the grid-fitting optimization of
// §7.1: choosing a [pm × pn × pk] grid that may leave ranks idle —
// down to ⌊(1−δ)·p⌋ used — when doing so reduces communication
// (Figure 5's 65-rank example, and the §9 adversarial p = 9217 case),
// screened by ModelVolume, its O(1) estimate of the average words a rank
// receives. Square, Layers and Halving are the grids the baselines fix
// upfront: SUMMA's most square 2D grid, 2.5D's layers and CARMA's BFS
// steps. Candidates lists Fit's grid and the policy grids that pass
// Fit's tests; COSMA's plan keeps whichever its own count says the
// busiest rank receives least on.
//
// Every policy is deterministic and cheap relative to execution; the
// engine layer caches plans per shape, so a long-running process chooses
// each distinct problem's grid exactly once. Grid also derives the
// blocked row/column/fiber rank groups the collectives operate over.
package grid
