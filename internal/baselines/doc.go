// Package baselines implements the state-of-the-art algorithms the
// paper compares against (§2.4, §9) and holds the table of all five
// algorithms, COSMA included (Algorithms, Lookup) — the one way to
// enumerate them or resolve one by name:
//
//   - SUMMA on a 2D grid (summa.go) — the decomposition ScaLAPACK
//     implements,
//   - the 2.5D decomposition of Solomonik and Demmel (c25d.go) — what
//     CTF implements,
//   - Cannon's algorithm (cannon.go) — the classic 2D reference, in the
//     table but outside the paper's comparison set,
//   - CARMA (carma.go) — the recursive split-largest-dimension
//     decomposition of Demmel et al.
//
// SUMMA and 2.5D are grid policies over core.NewPlan — the same
// Algorithm 1 rank program COSMA runs, on a grid fixed upfront instead
// of fitted (§6.3) — while Cannon and CARMA fill in an algo.Plan around
// their own rank programs. Either way planning fixes the grid once
// per shape, execution runs on the simulated machine with
// real data movement through the §7.2 collectives, and the local
// tile multiplications go through the per-rank packed GEMM kernel
// drawn from the executor's Arena. A model is read off a plan: SUMMA's
// and 2.5D's is core.NewPlan's count of their grid's schedule (equal to
// the measurement), Cannon's follows its torus schedule, and CARMA's is
// the recursive closed form of Table 3 — the one that is cross-checked
// against execution with a tolerance rather than with ==.
package baselines
