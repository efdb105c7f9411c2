//go:build !noasm

#include "textflag.h"

// The AVX2+FMA register micro-kernel. It reads the packed, k-major,
// zero-padded micro-panels produced by packA/packB (ap: mr values of A
// per k step, bp: nr values of B per k step), holds the full mr×nr tile
// of C in YMM accumulators seeded with zero, runs one VFMADD231PD chain
// per accumulator over the kb steps, and finally adds the tile into C
// with unfused VADDPDs — the same accumulate-then-add discipline as
// the portable Go tile, so each C element sees exactly one partial sum
// (a math.FMA chain in k order) plus one addition per k block.

// func kernelAVX2_4x8(c *float64, cstride, kb int, ap, bp *float64, tiles int)
//
// 4×8 tile: accumulator row r in Y(2r), Y(2r+1). Per k step: two
// 32-byte loads of B, four broadcasts of A, eight FMAs.
//
// One call sweeps `tiles` full-height tiles down one B micro-panel:
// tile t reads the t-th packed A micro-panel (ap advances kb·4 words
// by itself), re-reads the same bp, and adds into rows 4t..4t+3 of C.
TEXT ·kernelAVX2_4x8(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ cstride+8(FP), SI
	MOVQ kb+16(FP), DX
	MOVQ ap+24(FP), R8
	MOVQ bp+32(FP), R9
	MOVQ tiles+40(FP), CX
	SHLQ $3, SI                // row stride in bytes

	TESTQ CX, CX
	JLE   done4x8

tile4x8:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ  R9, R10              // this tile's walk over the B micro-panel
	MOVQ  DX, R11
	TESTQ R11, R11
	JZ    store4x8

loop4x8:
	VMOVUPD      (R10), Y8     // b0..b3
	VMOVUPD      32(R10), Y9   // b4..b7
	VBROADCASTSD (R8), Y10
	VFMADD231PD  Y8, Y10, Y0   // row 0, cols 0..3
	VFMADD231PD  Y9, Y10, Y1   // row 0, cols 4..7
	VBROADCASTSD 8(R8), Y11
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VBROADCASTSD 16(R8), Y10
	VFMADD231PD  Y8, Y10, Y4
	VFMADD231PD  Y9, Y10, Y5
	VBROADCASTSD 24(R8), Y11
	VFMADD231PD  Y8, Y11, Y6
	VFMADD231PD  Y9, Y11, Y7
	ADDQ         $32, R8       // next mr-wide A step
	ADDQ         $64, R10      // next nr-wide B step
	DECQ         R11
	JNZ          loop4x8

store4x8:
	VMOVUPD (DI), Y8
	VADDPD  Y0, Y8, Y8
	VMOVUPD Y8, (DI)
	VMOVUPD 32(DI), Y9
	VADDPD  Y1, Y9, Y9
	VMOVUPD Y9, 32(DI)
	ADDQ    SI, DI
	VMOVUPD (DI), Y10
	VADDPD  Y2, Y10, Y10
	VMOVUPD Y10, (DI)
	VMOVUPD 32(DI), Y11
	VADDPD  Y3, Y11, Y11
	VMOVUPD Y11, 32(DI)
	ADDQ    SI, DI
	VMOVUPD (DI), Y8
	VADDPD  Y4, Y8, Y8
	VMOVUPD Y8, (DI)
	VMOVUPD 32(DI), Y9
	VADDPD  Y5, Y9, Y9
	VMOVUPD Y9, 32(DI)
	ADDQ    SI, DI
	VMOVUPD (DI), Y10
	VADDPD  Y6, Y10, Y10
	VMOVUPD Y10, (DI)
	VMOVUPD 32(DI), Y11
	VADDPD  Y7, Y11, Y11
	VMOVUPD Y11, 32(DI)
	ADDQ    SI, DI             // first row of the next tile
	DECQ    CX
	JNZ     tile4x8

done4x8:
	VZEROUPPER
	RET
