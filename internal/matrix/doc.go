// Package matrix provides dense row-major float64 matrices, submatrix
// views, and the local multiplication kernel used by every algorithm
// in this repository — the stand-in for the MKL dgemm the paper's
// measurements sit on.
//
// The kernel (gemm.go) follows the GotoBLAS/BLIS structure: cache
// blocks of A and B are packed into contiguous micro-panels, a
// register-blocked micro-kernel sweeps them, and a Kernel's worker
// pool splits the M dimension across goroutines in micro-panel-aligned
// chunks. The register tile is selected once per process (tile.go):
// the portable Go 4×4 tile, unless on amd64 (AVX2+FMA, detected at
// startup) or arm64 (NEON) a wider assembly tile — 4×12 and 8×4 — takes
// over behind the !noasm build tag, called once per column of tiles
// rather than once per tile; the AVX2 tile packs in assembly too.
// Every tile keeps the same per-element accumulation order (one
// register partial sum per kc block, added to C once, zero-padded
// fringes), so results are bitwise-identical across
// thread counts and cache-block sizes; only the fused-multiply-add
// rounding distinguishes the SIMD tiles from the portable one. Pack
// buffers persist inside the Kernel, so hot paths that hold one (the
// executors' per-rank Arena kernels) pack without allocating. MulNaive
// is the independently written triple-loop oracle the packed kernel is
// tested and speed-guarded against.
//
// There is one kernel configuration — that tile with the stock cache
// blocks — and nothing to set. Calibrate (calibrate.go) measures the
// packed kernel's sustained Gflop/s (naming the tile it ran) and
// returns the measured γ (seconds per flop) consumed by
// machine.NetworkParams.WithGamma, so runtime predictions charge
// compute at the achieved rather than assumed rate.
//
// A matrix element is one "word" in the I/O analyses: the paper's
// memory parameter S counts exactly these elements.
package matrix
