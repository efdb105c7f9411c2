// Package core implements COSMA (Algorithm 1): the parallel schedule
// obtained by parallelizing the near-I/O-optimal sequential schedule.
//
// The decomposition is bottom-up (§3): the optimal local domain [a×a×b]
// comes from Eq. 32, the processor grid from the §7.1 fitting step that
// may idle up to δ·p ranks, and execution proceeds in
// latency-minimizing rounds of s = ⌊(S−a²)/(2a)⌋ outer products
// (Algorithm 1 line 6), with inputs broadcast along grid rows/columns
// from the blocked data layout (§7.6) and partial C results
// reduce-scattered along the k fibers, so C ends distributed over all
// ranks like A and B. A rank's pieces of that layout are views of the
// caller's matrices: the panels it owns are multiplied where they
// already are and packed only to be sent, so every input word is
// touched once before the kernel packs it into micro-panels.
//
// The work splits into two phases. Plan compiles a problem shape into
// an immutable algo.Plan — the fitted grid, the per-slab round segments
// and the model, a rank-by-rank count of the words that schedule moves —
// whose Execute replays that schedule against
// matrix values on a machine, so repeated same-shape multiplications
// fit the grid exactly once. Per-round tile updates run on the packed
// register-blocked GEMM kernel each rank draws from the executor's
// Arena (internal/matrix).
//
// NewPlan exports the schedule with the grid left to the caller: the
// 2D and 2.5D baselines (internal/baselines) are the same rank program
// on a grid fixed upfront instead of fitted (§6.3), and the same count
// is their model.
package core
