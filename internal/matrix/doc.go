// Package matrix provides dense row-major float64 matrices, submatrix
// views, and the local multiplication kernel used by every algorithm
// in this repository — the stand-in for the MKL dgemm the paper's
// measurements sit on.
//
// The kernel (gemm.go) follows the GotoBLAS/BLIS structure: cache
// blocks of A and B are packed into contiguous micro-panels, a
// register-blocked micro-kernel sweeps them, and a Kernel's worker
// pool splits the M dimension across goroutines in micro-panel-aligned
// chunks. The micro-kernel is chosen per Kernel from a variant table
// (variant.go): the portable Go 4×4 tile is always available, and on
// amd64 (AVX2+FMA, detected at startup) and arm64 (NEON) one wider
// assembly tile each — 4×8 and 8×4 — takes over behind the !noasm
// build tag, called once per column of tiles rather than once per
// tile. Every variant keeps the same per-element accumulation order
// (one register partial sum per kc block, added to C once, zero-padded
// fringes), so results are bitwise-identical across thread counts and
// cache-block sizes; only the fused-multiply-add rounding
// distinguishes the SIMD variants from the portable tile. Pack buffers
// persist inside the Kernel, so hot paths that hold one (the
// executors' per-rank Arena kernels) pack without allocating. MulNaive
// is the independently written triple-loop oracle the packed kernel is
// tested and speed-guarded against.
//
// There is one kernel configuration — the stock cache blocks and the
// best variant the CPU supports (DefaultParams) — and no search over
// it. Calibrate (calibrate.go) measures the packed kernel's sustained
// Gflop/s (naming the variant it dispatched to) and returns the
// measured γ (seconds per flop) consumed by
// machine.NetworkParams.WithGamma, so runtime predictions charge
// compute at the achieved rather than assumed rate.
//
// A matrix element is one "word" in the I/O analyses: the paper's
// memory parameter S counts exactly these elements.
package matrix
