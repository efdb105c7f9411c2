// Package algo defines the contract between the engine layer and the
// distributed MMM implementations (COSMA in internal/core and the
// baselines in internal/baselines), so the engine, the benchmark
// harness and the experiment suite can treat them uniformly.
//
// The contract is two-phase, mirroring the fact that everything in
// §6.3/§7.1 of the paper depends only on the problem shape:
//
//   - A Planner compiles (m, n, k, p, S) into an immutable Plan — the
//     fitted processor grid, ownership partitions, round schedule and
//     the Model of what that schedule moves, at any scale — or refuses
//     the shape with ErrUnsupportedShape.
//   - An Executor replays a Plan against matrix values on a pre-built
//     simulated machine, drawing per-rank scratch matrices and packed
//     GEMM kernels from an Arena that is recycled across executions,
//     so repeated same-shape multiplications allocate nothing at
//     steady state.
//
// Implementations self-register in a name-keyed registry (Register /
// New / Comparison), which is how the public cosma.WithAlgorithm
// option and the CLIs resolve algorithms.
package algo
