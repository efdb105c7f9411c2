// Package core implements COSMA (Algorithm 1): the parallel schedule
// obtained by parallelizing the near-I/O-optimal sequential schedule.
//
// The decomposition is bottom-up (§3): the optimal local domain [a×a×b]
// comes from Eq. 32, the processor grid from the §7.1 fitting step that
// uses at least ⌊(1−δ)·p⌋ ranks — or from a baseline's grid that passes
// the same tests where the plan's own count says its busiest rank
// receives fewer words (grid.Candidates) — and execution proceeds in
// latency-minimizing rounds of s = ⌊(S−a²)/(2a)⌋ outer products
// (Algorithm 1 line 6), with inputs broadcast along grid rows/columns
// from the blocked data layout (§7.6) and partial C results
// reduce-scattered along the k fibers, so C ends distributed over all
// ranks like A and B. Every round goes through one loop, comm.Stream:
// its A panel's row blocks, then its B panel, each a broadcast, with
// the next round's in flight while it is multiplied where S holds a
// second panel pair (§7.3). The layout leaves free which rank holds
// which piece; on a square grid a pipelined plan staggers them so that
// no rank owns both panels of a round and idles its ingress port
// meanwhile. A rank's pieces are views of the caller's matrices: the
// panels it owns are multiplied where they already are and packed only
// to be sent, so every input word is touched once before the kernel
// packs it into micro-panels. The last round is multiplied inside the
// fiber reduction, one row band per C block just before the block is
// sent, so the fiber's transfers overlap the round's compute. A
// synchronous plan compiled for a network whose A trees are at least two
// levels deep broadcasts each A panel in row blocks the α-β price pays
// for, and multiplies C's row band j as soon as block j lands: the
// overlap a pipelined plan buys with a second panel pair, inside the
// one pair S allows. A round packs its B panel once for all its bands.
//
// The work splits into two phases. Plan compiles a problem shape into
// an immutable algo.Plan — the chosen grid, every k slab's round table
// (newSlab) and the model, a rank-by-rank count of the words that schedule moves —
// whose Execute replays that schedule against
// matrix values on a machine, so repeated same-shape multiplications
// choose the grid exactly once. Per-round tile updates run on the packed
// register-blocked GEMM kernel each rank draws from the executor's
// Arena (internal/matrix).
//
// NewPlan exports the schedule with the grid left to the caller: the
// 2D and 2.5D baselines (internal/baselines) are the same rank program
// on a grid fixed upfront instead of fitted (§6.3), and the same count
// is their model. NewBlockedPlan cuts C into blocks that the ranks
// multiply one after another on one grid, each with all of k, inside
// one run: CARMA's sequential (DFS) steps where its grid's C tile does
// not fit S.
package core
