//go:build arm64 && !noasm

package matrix

import "unsafe"

// The NEON (ASIMD) micro-kernel (gemm_arm64.s). It accumulates the
// full 8×4 register tile over the packed panels with FMLA chains and
// adds it into C, mirroring the accumulate-then-add structure of the
// portable Go tile; each C element's value is a math.FMA chain over
// the k block followed by one addition. ASIMD is architecturally
// mandatory on AArch64, so no runtime feature check is needed.
//
//go:noescape
func kernelNEON_8x4(c *float64, cstride, kb int, ap, bp *float64)

// sweepNEON_8x4 gives the one-tile assembly the dispatch signature:
// tile t adds into rows 8t..8t+7 of C from the t-th A micro-panel. The
// tile is not narrow, so w is always 4.
func sweepNEON_8x4(c *float64, cstride, kb int, ap, bp *float64, tiles, _ int) {
	const rows, word = 8, 8 // tile height; bytes per float64
	for t := 0; t < tiles; t++ {
		kernelNEON_8x4((*float64)(unsafe.Add(unsafe.Pointer(c), t*rows*cstride*word)), cstride, kb,
			(*float64)(unsafe.Add(unsafe.Pointer(ap), t*kb*rows*word)), bp)
	}
}

func init() {
	dispatched = tile{name: "neon-8x4", mr: 8, nr: 4, fused: true, sweep: sweepNEON_8x4}
}
