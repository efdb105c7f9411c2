//go:build amd64 && !noasm

package matrix

// The AVX2+FMA micro-kernel (gemm_amd64.s). It accumulates the full
// 4×8 register tile over the packed panels and adds it into C with
// plain (unfused) vector adds, exactly mirroring the accumulate-then-
// add structure of the portable Go tile; each C element's value is a
// math.FMA chain over the k block followed by one addition. One call
// does that for `tiles` consecutive tiles down a column of C.
//
//go:noescape
func kernelAVX2_4x8(c *float64, cstride, kb int, ap, bp *float64, tiles int)

// cpuid executes the CPUID instruction with the given leaf and
// subleaf (cpu_amd64.s).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0, which reports the vector
// register state the OS saves and restores (cpu_amd64.s).
func xgetbv0() (eax, edx uint32)

// hasAVX2FMA reports whether both the CPU and the OS support the
// AVX2+FMA kernels: the FMA/AVX/AVX2 feature bits plus OSXSAVE with
// XMM and YMM state enabled (without the latter, the OS would not
// preserve the upper YMM halves across context switches).
var hasAVX2FMA = detectAVX2FMA()

func detectAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	_, _, c1, _ := cpuid(1, 0)
	if c1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	const xmmYmm = 0x6 // XCR0 bits 1 (SSE) and 2 (AVX) both enabled
	if lo, _ := xgetbv0(); lo&xmmYmm != xmmYmm {
		return false
	}
	const avx2 = 1 << 5
	_, b7, _, _ := cpuid(7, 0)
	return b7&avx2 != 0
}

func init() {
	if hasAVX2FMA {
		variantKerns[VariantAVX2_4x8] = kernelAVX2_4x8
	}
}
