// Package baselines implements the state-of-the-art algorithms the
// paper compares against (§2.4, §9) and holds the table of all four
// algorithms, COSMA included (Algorithms, Lookup) — the one way to
// enumerate them or resolve one by name:
//
//   - SUMMA on grid.Square's 2D grid — the decomposition ScaLAPACK
//     implements,
//   - the 2.5D decomposition of Solomonik and Demmel on grid.Layers —
//     what CTF implements,
//   - CARMA (carma.go) — the recursive split-largest-dimension
//     decomposition of Demmel et al.
//
// Each is a grid policy over core's Algorithm 1 — the same rank program
// COSMA runs, on a grid internal/grid chooses upfront instead of fitted
// (§6.3): SUMMA's most square 2D grid and 2.5D's layers, each a
// one-line row of the table (algorithms.go), and the grid CARMA's BFS
// steps reach by halving the largest dimension, with its DFS steps as C
// blocks multiplied one after another where that grid's tile does not
// fit S. Planning fixes the grid once per shape, execution runs on the
// simulated machine with real data movement through the §7.2
// collectives, and the local tile multiplications go through the
// per-rank packed GEMM kernel drawn from the executor's Arena. A model
// is read off a plan: core's count of its schedule, equal to the
// measurement.
package baselines
