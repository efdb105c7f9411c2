package matrix

// Variant identifies one register micro-kernel implementation. The
// portable Go 4×4 tile is always available; the SIMD variants are
// compiled in behind the !noasm build tag and become available only
// when the running CPU supports the instruction set (AVX2+FMA on
// amd64; ASIMD is architecturally guaranteed on arm64). Every variant
// obeys the kernel's reproducibility contract: a fixed k-accumulation
// order per element of C (one register-resident partial sum per kc
// block, added to C once), zero-padded fringe micro-panels, and
// therefore bitwise-identical results across thread counts.
//
// Variants differ in two observable ways: the register-tile shape
// (mr×nr), which only moves block-fringe boundaries, and whether the
// multiply-add is fused (one rounding per step, the FMA instruction
// semantics of math.FMA) or split (separate multiply and add
// roundings, the portable Go semantics). Fused and unfused variants
// agree to rounding error, not bitwise.
type Variant uint8

const (
	// VariantGo4x4 is the portable register-blocked Go micro-kernel:
	// a 4×4 tile in sixteen scalar accumulators, unfused multiply-add.
	VariantGo4x4 Variant = iota
	// VariantAVX2_4x8 is the amd64 AVX2+FMA kernel: a 4×8 tile in
	// eight YMM accumulators (two 4-wide registers per row), two B
	// loads, four A broadcasts and eight VFMADD231PDs per k step.
	VariantAVX2_4x8
	// VariantNEON_8x4 is the arm64 ASIMD kernel: an 8×4 tile in
	// sixteen 128-bit accumulators, FMLA with broadcast A lanes.
	VariantNEON_8x4

	numVariants
)

// microKernelFunc is the raw dispatch signature shared by the SIMD
// register kernels: accumulate the full mr×nr register tile over the
// kb-deep packed micro-panels ap (mr-wide, k-major) and bp (nr-wide,
// k-major), then add it into C — and do so for `tiles` tiles stacked
// down one column of C: tile t takes the t-th micro-panel of the
// packed A block (kb·mr words further on), the same bp, and rows
// t·mr … t·mr+mr−1. c points at the first tile's top-left element;
// cstride is C's row stride in elements.
type microKernelFunc func(c *float64, cstride, kb int, ap, bp *float64, tiles int)

var variantNames = [numVariants]string{
	VariantGo4x4:    "go4x4",
	VariantAVX2_4x8: "avx2-4x8",
	VariantNEON_8x4: "neon-8x4",
}

var variantDims = [numVariants][2]int{
	VariantGo4x4:    {4, 4},
	VariantAVX2_4x8: {4, 8},
	VariantNEON_8x4: {8, 4},
}

var variantFused = [numVariants]bool{
	VariantGo4x4:    false,
	VariantAVX2_4x8: true,
	VariantNEON_8x4: true,
}

// variantKerns holds the dispatch targets. VariantGo4x4 stays nil —
// the Go tile has its own typed path — and the build-tagged simd_*.go
// files fill in the SIMD entries at init when the CPU qualifies, so a
// nil entry means "not available in this binary on this machine".
var variantKerns [numVariants]microKernelFunc

// String returns the variant's stable name, as used by Calibration
// and the benchmark artifacts.
func (v Variant) String() string {
	if int(v) >= len(variantNames) {
		return "invalid"
	}
	return variantNames[v]
}

// Dims returns the variant's register-tile shape (mr rows × nr cols),
// which is also the micro-panel width of its packed A and B blocks.
func (v Variant) Dims() (mr, nr int) {
	d := variantDims[v]
	return d[0], d[1]
}

// Fused reports whether the variant accumulates with fused
// multiply-add (one rounding per step, math.FMA semantics) rather
// than a separate multiply and add.
func (v Variant) Fused() bool { return variantFused[v] }

// Available reports whether this binary can dispatch to the variant
// on the running CPU. VariantGo4x4 is always available; SIMD variants
// require both compilation (no noasm tag, matching GOARCH) and
// runtime CPU support.
func (v Variant) Available() bool {
	if v >= numVariants {
		return false
	}
	return v == VariantGo4x4 || variantKerns[v] != nil
}

// Variants returns every variant available on this machine, portable
// first.
func Variants() []Variant {
	vs := []Variant{VariantGo4x4}
	for v := VariantGo4x4 + 1; v < numVariants; v++ {
		if v.Available() {
			vs = append(vs, v)
		}
	}
	return vs
}

// bestVariantOrder ranks the SIMD variants for the default.
// amd64's tile is 4×8 because, counted in YMM registers, it is 4×2:
// two B loads and four A broadcasts feed eight FMAs per k step — six
// load µops, so the two FMA ports set the pace, where a tile one
// register wide (8×1) would need nine and wait on the two load ports.
// BenchmarkKernelRankShapes times every available variant at the
// benchmark's three per-rank call shapes.
var bestVariantOrder = []Variant{VariantAVX2_4x8, VariantNEON_8x4}

// BestVariant returns the preferred available variant: the SIMD
// kernel the CPU supports, or VariantGo4x4 when none is. This is
// what NewKernel dispatches to.
func BestVariant() Variant {
	for _, v := range bestVariantOrder {
		if v.Available() {
			return v
		}
	}
	return VariantGo4x4
}
