// Package algo defines what the engine layer and the distributed MMM
// implementations (COSMA in internal/core and the baselines in
// internal/baselines) exchange, so the engine, the benchmark harness and
// the experiment suite treat them uniformly.
//
// It is two-phase, mirroring the fact that everything in §6.3/§7.1 of the
// paper depends only on the problem shape:
//
//   - A Spec — one row of the table baselines.Algorithms — compiles
//     (m, n, k, p, S) under a Config into an immutable Plan: one struct
//     holding the schedule's Execute, its shape, its geometry where it has
//     one, and the Model of what it moves, at any scale — or refuses the
//     shape with ErrUnsupportedShape. Model.Time is the one α-β-γ price
//     of a model on a network.
//   - An Executor replays a Plan against matrix values on a pre-built
//     simulated machine, drawing per-rank scratch matrices and packed
//     GEMM kernels from an Arena that is recycled across executions,
//     so repeated same-shape multiplications allocate nothing at
//     steady state.
package algo
