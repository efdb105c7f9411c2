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

// STEP4x12 is one k step of the 4×12 tile at byte offsets a into the A
// micro-panel (R8) and b into the B micro-panel (R10): three 32-byte
// loads of B, then per row one broadcast of its A value and three FMAs.
#define STEP4x12(a, b) \
	VMOVUPD      b(R10), Y12; \
	VMOVUPD      b+32(R10), Y13; \
	VMOVUPD      b+64(R10), Y14; \
	VBROADCASTSD a(R8), Y15; \
	VFMADD231PD  Y12, Y15, Y0; \
	VFMADD231PD  Y13, Y15, Y1; \
	VFMADD231PD  Y14, Y15, Y2; \
	VBROADCASTSD a+8(R8), Y15; \
	VFMADD231PD  Y12, Y15, Y3; \
	VFMADD231PD  Y13, Y15, Y4; \
	VFMADD231PD  Y14, Y15, Y5; \
	VBROADCASTSD a+16(R8), Y15; \
	VFMADD231PD  Y12, Y15, Y6; \
	VFMADD231PD  Y13, Y15, Y7; \
	VFMADD231PD  Y14, Y15, Y8; \
	VBROADCASTSD a+24(R8), Y15; \
	VFMADD231PD  Y12, Y15, Y9; \
	VFMADD231PD  Y13, Y15, Y10; \
	VFMADD231PD  Y14, Y15, Y11

// PREFETCHROW4x12 asks for every cache line of the 96-byte C row at R12
// (its first, 64th and last byte cover the two or three lines it spans)
// and steps R12 to the next row.
#define PREFETCHROW4x12 \
	PREFETCHT0 (R12); \
	PREFETCHT0 64(R12); \
	PREFETCHT0 95(R12); \
	ADDQ       SI, R12

// ADDROW4x12 adds accumulators y0, y1, y2 into the 12-wide C row at DI
// and steps DI to the next row.
#define ADDROW4x12(y0, y1, y2) \
	VMOVUPD (DI), Y12; \
	VADDPD  y0, Y12, Y12; \
	VMOVUPD Y12, (DI); \
	VMOVUPD 32(DI), Y13; \
	VADDPD  y1, Y13, Y13; \
	VMOVUPD Y13, 32(DI); \
	VMOVUPD 64(DI), Y14; \
	VADDPD  y2, Y14, Y14; \
	VMOVUPD Y14, 64(DI); \
	ADDQ    SI, DI

// EDGEMASK is eight quadwords, four of all ones then four zeros: the
// four read at byte offset 8·(4 − t) are the VMASKMOVPD mask of a
// group's first t lanes.
DATA edgemask<>+0(SB)/8, $-1
DATA edgemask<>+8(SB)/8, $-1
DATA edgemask<>+16(SB)/8, $-1
DATA edgemask<>+24(SB)/8, $-1
DATA edgemask<>+32(SB)/8, $0
DATA edgemask<>+40(SB)/8, $0
DATA edgemask<>+48(SB)/8, $0
DATA edgemask<>+56(SB)/8, $0
GLOBL edgemask<>(SB), RODATA|NOPTR, $64

// EDGEGROUP adds accumulator y into the 4-wide group at byte offset off
// of the C row at DI, only the lanes the mask in Y15 selects.
#define EDGEGROUP(y, off) \
	VMASKMOVPD off(DI), Y15, Y12; \
	VADDPD     y, Y12, Y12; \
	VMASKMOVPD Y12, Y15, off(DI)

// func kernelAVX2_4x12(c *float64, cstride, kb int, ap, bp *float64, tiles, w int)
//
// 4×12 tile: accumulator row r in Y(3r), Y(3r+1), Y(3r+2). The k loop
// takes two steps per iteration, then a last step when kb is odd; each
// accumulator still sees its FMAs in k order from zero.
//
// One call sweeps `tiles` full-height tiles down one B micro-panel:
// tile t reads the t-th packed A micro-panel (ap advances kb·4 words
// by itself), re-reads the same bp, and adds into rows 4t..4t+3 of C,
// whose lines it prefetches before the k loop so the final
// read-modify-write finds them in cache. A panel w < 12 columns wide
// (its dead lanes zero-padded) adds each row's first w columns only:
// its whole 4-column groups with plain stores, the t = w mod 4 columns
// after them with VMASKMOVPD, one row at a time — the next row's
// accumulators move up into Y0–Y2 — and nothing past column w.
TEXT ·kernelAVX2_4x12(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ cstride+8(FP), SI
	MOVQ kb+16(FP), DX
	MOVQ ap+24(FP), R8
	MOVQ bp+32(FP), R9
	MOVQ tiles+40(FP), CX
	MOVQ w+48(FP), BX
	SHLQ $3, SI                // row stride in bytes

	MOVQ BX, AX
	ANDQ $3, AX                // t: columns past the whole groups
	SHLQ $3, AX
	LEAQ edgemask<>+32(SB), R13
	SUBQ AX, R13               // R13: the mask of t lanes

	TESTQ CX, CX
	JLE   done4x12

tile4x12:
	MOVQ DI, R12
	PREFETCHROW4x12
	PREFETCHROW4x12
	PREFETCHROW4x12
	PREFETCHROW4x12

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11

	MOVQ R9, R10               // this tile's walk over the B micro-panel
	MOVQ DX, R11
	SHRQ $1, R11               // pairs of k steps
	JZ   tail4x12

pair4x12:
	STEP4x12(0, 0)
	STEP4x12(32, 96)
	ADDQ $64, R8               // two mr-wide A steps
	ADDQ $192, R10             // two nr-wide B steps
	DECQ R11
	JNZ  pair4x12

tail4x12:
	TESTQ $1, DX
	JZ    store4x12
	STEP4x12(0, 0)
	ADDQ  $32, R8              // A advances to the next tile's panel

store4x12:
	CMPQ BX, $12
	JLT  narrow4x12
	ADDROW4x12(Y0, Y1, Y2)
	ADDROW4x12(Y3, Y4, Y5)
	ADDROW4x12(Y6, Y7, Y8)
	ADDROW4x12(Y9, Y10, Y11)   // leaves DI on the next tile's first row
	DECQ CX
	JNZ  tile4x12
	JMP  done4x12

narrow4x12:
	VMOVUPD (R13), Y15
	MOVQ    $4, R11            // rows left in the tile

row4x12:
	CMPQ BX, $4
	JLT  part0x12
	VMOVUPD (DI), Y12
	VADDPD  Y0, Y12, Y12
	VMOVUPD Y12, (DI)
	CMPQ    BX, $8
	JLT     part1x12
	VMOVUPD 32(DI), Y13
	VADDPD  Y1, Y13, Y13
	VMOVUPD Y13, 32(DI)
	TESTQ   $3, BX
	JZ      next4x12
	EDGEGROUP(Y2, 64)
	JMP     next4x12

part1x12:
	TESTQ $3, BX
	JZ    next4x12
	EDGEGROUP(Y1, 32)
	JMP   next4x12

part0x12:
	EDGEGROUP(Y0, 0)

next4x12:
	VMOVAPD Y3, Y0
	VMOVAPD Y4, Y1
	VMOVAPD Y5, Y2
	VMOVAPD Y6, Y3
	VMOVAPD Y7, Y4
	VMOVAPD Y8, Y5
	VMOVAPD Y9, Y6
	VMOVAPD Y10, Y7
	VMOVAPD Y11, Y8
	ADDQ    SI, DI
	DECQ    R11
	JNZ     row4x12
	DECQ    CX
	JNZ     tile4x12

done4x12:
	VZEROUPPER
	RET
