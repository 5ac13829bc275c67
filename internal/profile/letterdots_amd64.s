#include "textflag.h"

// func letterDotStrips(dst []float64, idx []int32, val, tab []float64, stride int, occA float64, occB []float64) int
//
// letterDots over cells [0, len(dst)&^3) in AVX2: every letter of the
// column into sums held in YMM registers, sixteen cells a strip in four
// accumulators while sixteen remain, then four cells a strip in one.
// Each sum starts at +0 (VXORPD) and adds its letters in the order of
// idx, every product rounded before its add (VMULPD, then VADDPD; there
// is no fused multiply-add): ((+0 + v1·c1) + v2·c2) + …, then ·occA,
// then ·occB when occB is non-empty. A cell is scaled and stored once.
//
// Registers: DI dst, CX its length, SI idx, DX the letter count, R8
// val, R9 tab, R10 the stride in bytes, R11 occB, Y9 occA in every
// lane; BX the strip's first cell, R13 its address in tab's row 0, AX
// the letter, R12 the letter's row at the strip.
TEXT ·letterDotStrips(SB), NOSPLIT, $0-144
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         idx_base+24(FP), SI
	MOVQ         idx_len+32(FP), DX
	MOVQ         val_base+48(FP), R8
	MOVQ         tab_base+72(FP), R9
	MOVQ         stride+96(FP), R10
	SHLQ         $3, R10
	VBROADCASTSD occA+104(FP), Y9
	MOVQ         occB_base+112(FP), R11
	XORQ         BX, BX
	JMP          wideTest

wide: // cells BX … BX+15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	LEAQ   (R9)(BX*8), R13
	XORQ   AX, AX
	JMP    wideLetterTest

wideLetter:
	MOVLQSX      (SI)(AX*4), R12
	IMULQ        R10, R12
	ADDQ         R13, R12
	VBROADCASTSD (R8)(AX*8), Y8
	VMULPD       (R12), Y8, Y4
	VMULPD       32(R12), Y8, Y5
	VMULPD       64(R12), Y8, Y6
	VMULPD       96(R12), Y8, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	INCQ         AX

wideLetterTest:
	CMPQ AX, DX
	JLT  wideLetter
	CMPQ occB_len+120(FP), $0
	JEQ  wideStore
	VMULPD Y9, Y0, Y0
	VMULPD Y9, Y1, Y1
	VMULPD Y9, Y2, Y2
	VMULPD Y9, Y3, Y3
	VMULPD (R11)(BX*8), Y0, Y0
	VMULPD 32(R11)(BX*8), Y1, Y1
	VMULPD 64(R11)(BX*8), Y2, Y2
	VMULPD 96(R11)(BX*8), Y3, Y3

wideStore:
	VMOVUPD Y0, (DI)(BX*8)
	VMOVUPD Y1, 32(DI)(BX*8)
	VMOVUPD Y2, 64(DI)(BX*8)
	VMOVUPD Y3, 96(DI)(BX*8)
	ADDQ    $16, BX

wideTest:
	LEAQ 16(BX), R12
	CMPQ R12, CX
	JLE  wide
	JMP  narrowTest

narrow: // cells BX … BX+3
	VXORPD Y0, Y0, Y0
	LEAQ   (R9)(BX*8), R13
	XORQ   AX, AX
	JMP    narrowLetterTest

narrowLetter:
	MOVLQSX      (SI)(AX*4), R12
	IMULQ        R10, R12
	ADDQ         R13, R12
	VBROADCASTSD (R8)(AX*8), Y8
	VMULPD       (R12), Y8, Y4
	VADDPD       Y4, Y0, Y0
	INCQ         AX

narrowLetterTest:
	CMPQ AX, DX
	JLT  narrowLetter
	CMPQ occB_len+120(FP), $0
	JEQ  narrowStore
	VMULPD Y9, Y0, Y0
	VMULPD (R11)(BX*8), Y0, Y0

narrowStore:
	VMOVUPD Y0, (DI)(BX*8)
	ADDQ    $4, BX

narrowTest:
	LEAQ 4(BX), R12
	CMPQ R12, CX
	JLE  narrow
	VZEROUPPER
	MOVQ BX, ret+136(FP)
	RET
