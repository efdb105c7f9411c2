package matrix

// tile is a register micro-kernel: its stable name (as Calibration
// reports it), its register-tile shape mr×nr — which is also the
// micro-panel width of the packed A and B blocks — whether it
// multiply-adds fused (one rounding per step, math.FMA semantics) or
// split (separate multiply and add roundings, the portable Go
// semantics), and its assembly sweep (nil for the Go tile, which has
// its own typed path), and whether that sweep adds the full-height tiles
// of a B micro-panel narrower than nr straight into C (narrow) or
// leaves such panels to be staged, and its assembly packs (nil where
// the tile packs with the Go loops packA and packB). Every tile obeys
// the kernel's reproducibility contract: a fixed k-accumulation order
// per element of C (one register-resident partial sum per kc block,
// added to C once), zero-padded fringe micro-panels, and therefore
// bitwise-identical results across thread counts and cache blocks.
// Fused and unfused tiles agree to rounding error, not bitwise. Every
// tile's mr and nr are multiples of 4 (TestTilesPackInGroupsOfFour):
// packA fills a full A micro-panel in groups of four rows and relies on
// it, and an assembly pack is written for its tile's mr and nr alone.
type tile struct {
	name   string
	mr, nr int
	fused  bool
	sweep  microKernelFunc
	narrow bool
	packA  packAFunc
	packB  packBFunc
}

// microKernelFunc is the raw dispatch signature of the SIMD register
// kernels: accumulate the full mr×nr register tile over the kb-deep
// packed micro-panels ap (mr-wide, k-major) and bp (nr-wide, k-major),
// then add it into C — and do so for `tiles` tiles stacked down one
// column of C: tile t takes the t-th micro-panel of the packed A block
// (kb·mr words further on), the same bp, and rows t·mr … t·mr+mr−1. c
// points at the first tile's top-left element; cstride is C's row
// stride in elements. w is the live width of bp: a sweep whose tile is
// narrow adds only C's first w columns of each tile row and touches no
// other word; every other sweep is only called with w = nr.
type microKernelFunc func(c *float64, cstride, kb int, ap, bp *float64, tiles, w int)

// packAFunc and packBFunc are the raw signatures of a SIMD tile's
// packs, which lay out exactly the words packA and packB do. packAFunc
// packs `panels` full mr-row A micro-panels of a kb-deep block at src
// (rows stride elements apart) back to back at dst. packBFunc packs
// the kb rows of a B block at src into `panels` full nr-wide
// micro-panels and, when w > 0, one w-wide fringe panel zero-padded to
// nr. Kernel.packA and Kernel.packB check the bounds and call them; the
// pointers keep a packed operand's Dense off the heap, which a
// function value taking it would not.
type (
	packAFunc func(dst, src *float64, stride, kb, panels int)
	packBFunc func(dst, src *float64, stride, kb, panels, w int)
)

// portableTile is the register-blocked Go micro-kernel: a 4×4 tile in
// sixteen scalar accumulators, unfused multiply-add.
var portableTile = tile{name: "go4x4", mr: mr, nr: nr}

// dispatched is the tile every Kernel runs. It is the portable tile
// unless the build-tagged simd_*.go replaces it at init: amd64 with
// AVX2+FMA (CPUID-detected) takes the 4×12 assembly tile, arm64 the
// 8×4 NEON tile. There is one per process and nothing chooses between
// tiles afterwards.
var dispatched = portableTile

// TileName returns the name of the tile every Kernel of this process
// runs: the micro-panel layout PackA and PackB pack operands in, which
// a packed panel keeps wherever it is sent.
func TileName() string { return dispatched.name }
