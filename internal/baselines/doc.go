// Package baselines implements the state-of-the-art algorithms the
// paper compares against (§2.4, §9) and holds the table of all five
// algorithms, COSMA included (Algorithms, Lookup) — the one way to
// enumerate them or resolve one by name:
//
//   - SUMMA on grid.Square's 2D grid — the decomposition ScaLAPACK
//     implements,
//   - the 2.5D decomposition of Solomonik and Demmel on grid.Layers —
//     what CTF implements,
//   - CARMA (carma.go) — the recursive split-largest-dimension
//     decomposition of Demmel et al.,
//   - Cannon's algorithm (cannon.go) — the classic 2D reference, in the
//     table but outside the paper's comparison set.
//
// SUMMA, 2.5D and CARMA are grid policies over core's Algorithm 1 — the
// same rank program COSMA runs, on a grid internal/grid chooses upfront
// instead of fitted (§6.3): SUMMA's most square 2D grid and 2.5D's
// layers, each a one-line row of the table (algorithms.go), and the grid
// CARMA's BFS steps reach by halving the largest dimension, with its DFS
// steps as C blocks multiplied one after another where that grid's tile
// does not fit S. Cannon fills in an algo.Plan around its
// own torus program. Either way planning fixes the grid once per shape,
// execution runs on the simulated machine with real data movement
// through the §7.2 collectives, and the local tile multiplications go
// through the per-rank packed GEMM kernel drawn from the executor's
// Arena. A model is read off a plan: the grid policies' is core's count
// of their schedule and Cannon's follows its torus schedule — each equal
// to the measurement.
package baselines
