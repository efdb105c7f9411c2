//go:build !noasm

#include "textflag.h"

// The AVX2 packs of the 4×12 tile (packAAVX2, packBAVX2 in
// simd_amd64.go): the layouts of packA and packB at mr = 4 and
// nr = 12, moved 32 bytes at a time.

// func packA4AVX2(dst, src *float64, stride, kb, panels int)
//
// Packs `panels` full 4-row A micro-panels: panel i reads rows 4i..4i+3
// of the block at src (stride elements apart), kb words each, and
// writes its kb 4-word groups, one per k step, back to back at dst from
// word 4·kb·i on. Four k steps are one 4×4 register transpose: a
// 32-byte load from each row, VUNPCKLPD/VUNPCKHPD pair the rows' words
// within each 128-bit lane, VPERM2F128 joins the lanes, and four
// 32-byte stores write the four groups. The last kb mod 4 steps move
// word by word.
TEXT ·packA4AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ stride+16(FP), DX
	MOVQ kb+24(FP), CX
	MOVQ panels+32(FP), BX
	SHLQ $3, DX                // row stride in bytes
	TESTQ BX, BX
	JLE   doneA

panelA:
	MOVQ SI, R8                // the panel's four row streams
	LEAQ (SI)(DX*1), R9
	LEAQ (SI)(DX*2), R10
	LEAQ (R9)(DX*2), R11
	MOVQ CX, AX
	SHRQ $2, AX                // 4×4 transposes
	JZ   tailA

quadA:
	VMOVUPD    (R8), Y0        // a0 a1 a2 a3
	VMOVUPD    (R9), Y1        // b0 b1 b2 b3
	VMOVUPD    (R10), Y2       // c0 c1 c2 c3
	VMOVUPD    (R11), Y3       // d0 d1 d2 d3
	VUNPCKLPD  Y1, Y0, Y4      // a0 b0 a2 b2
	VUNPCKHPD  Y1, Y0, Y5      // a1 b1 a3 b3
	VUNPCKLPD  Y3, Y2, Y6      // c0 d0 c2 d2
	VUNPCKHPD  Y3, Y2, Y7      // c1 d1 c3 d3
	VPERM2F128 $0x20, Y6, Y4, Y0 // a0 b0 c0 d0
	VPERM2F128 $0x20, Y7, Y5, Y1 // a1 b1 c1 d1
	VPERM2F128 $0x31, Y6, Y4, Y2 // a2 b2 c2 d2
	VPERM2F128 $0x31, Y7, Y5, Y3 // a3 b3 c3 d3
	VMOVUPD    Y0, (DI)
	VMOVUPD    Y1, 32(DI)
	VMOVUPD    Y2, 64(DI)
	VMOVUPD    Y3, 96(DI)
	ADDQ       $32, R8
	ADDQ       $32, R9
	ADDQ       $32, R10
	ADDQ       $32, R11
	ADDQ       $128, DI
	DECQ       AX
	JNZ        quadA

tailA:
	MOVQ CX, AX
	ANDQ $3, AX
	JZ   nextA

stepA:
	MOVQ (R8), R12
	MOVQ R12, (DI)
	MOVQ (R9), R12
	MOVQ R12, 8(DI)
	MOVQ (R10), R12
	MOVQ R12, 16(DI)
	MOVQ (R11), R12
	MOVQ R12, 24(DI)
	ADDQ $8, R8
	ADDQ $8, R9
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $32, DI
	DECQ AX
	JNZ  stepA

nextA:
	LEAQ (SI)(DX*4), SI        // the next panel's first row; DI is already there
	DECQ BX
	JNZ  panelA

doneA:
	VZEROUPPER
	RET

// FRINGEMASK is 24 quadwords, twelve of all ones then twelve zeros: the
// twelve read at byte offset 8·(12 − w) are the VMASKMOVPD masks of a
// 12-word row's first w lanes, one 4-lane group per 32 bytes.
DATA fringemask<>+0(SB)/8, $-1
DATA fringemask<>+8(SB)/8, $-1
DATA fringemask<>+16(SB)/8, $-1
DATA fringemask<>+24(SB)/8, $-1
DATA fringemask<>+32(SB)/8, $-1
DATA fringemask<>+40(SB)/8, $-1
DATA fringemask<>+48(SB)/8, $-1
DATA fringemask<>+56(SB)/8, $-1
DATA fringemask<>+64(SB)/8, $-1
DATA fringemask<>+72(SB)/8, $-1
DATA fringemask<>+80(SB)/8, $-1
DATA fringemask<>+88(SB)/8, $-1
DATA fringemask<>+96(SB)/8, $0
DATA fringemask<>+104(SB)/8, $0
DATA fringemask<>+112(SB)/8, $0
DATA fringemask<>+120(SB)/8, $0
DATA fringemask<>+128(SB)/8, $0
DATA fringemask<>+136(SB)/8, $0
DATA fringemask<>+144(SB)/8, $0
DATA fringemask<>+152(SB)/8, $0
DATA fringemask<>+160(SB)/8, $0
DATA fringemask<>+168(SB)/8, $0
DATA fringemask<>+176(SB)/8, $0
DATA fringemask<>+184(SB)/8, $0
GLOBL fringemask<>(SB), RODATA|NOPTR, $192

// func packB12AVX2(dst, src *float64, stride, kb, panels, w int)
//
// Packs a kb-row B block at src (stride elements apart) into `panels`
// full 12-wide micro-panels and, when w > 0, a fringe panel of its next
// w columns zero-padded to 12: row p's twelve words of panel j go to
// dst word 12·kb·j + 12·p. Each B row is read once, left to right, in
// three 32-byte moves per panel; the fringe's are masked loads, which
// read no word past column w and load zeros in the dead lanes.
TEXT ·packB12AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ stride+16(FP), DX
	MOVQ kb+24(FP), CX
	MOVQ panels+32(FP), BX
	MOVQ w+40(FP), R11
	SHLQ $3, DX                // row stride in bytes
	IMUL3Q $96, CX, R12        // panel length in bytes: kb rows of 12 words

	MOVQ    R11, AX
	SHLQ    $3, AX
	LEAQ    fringemask<>+96(SB), R13
	SUBQ    AX, R13
	VMOVUPD (R13), Y13         // the fringe's three group masks
	VMOVUPD 32(R13), Y14
	VMOVUPD 64(R13), Y15

	TESTQ CX, CX
	JLE   doneB

rowB:
	MOVQ SI, R8                // this row, left to right
	MOVQ DI, R9                // its place in panel 0
	MOVQ BX, AX
	TESTQ AX, AX
	JZ    edgeB

panelB:
	VMOVUPD (R8), Y0
	VMOVUPD 32(R8), Y1
	VMOVUPD 64(R8), Y2
	VMOVUPD Y0, (R9)
	VMOVUPD Y1, 32(R9)
	VMOVUPD Y2, 64(R9)
	ADDQ    $96, R8
	ADDQ    R12, R9
	DECQ    AX
	JNZ     panelB

edgeB:
	TESTQ      R11, R11
	JZ         nextB
	VMASKMOVPD (R8), Y13, Y0
	VMASKMOVPD 32(R8), Y14, Y1
	VMASKMOVPD 64(R8), Y15, Y2
	VMOVUPD    Y0, (R9)
	VMOVUPD    Y1, 32(R9)
	VMOVUPD    Y2, 64(R9)

nextB:
	ADDQ DX, SI
	ADDQ $96, DI
	DECQ CX
	JNZ  rowB

doneB:
	VZEROUPPER
	RET
