#include "textflag.h"

// func colSweepPairs(dst, src, c1, c2, occB []float64, v1, v2, occA float64) int
//
// colSweep's loop over the whole pairs of cells [0, len(dst)&^1), two
// cells per SSE2 instruction, one loop per sweep shape: a second letter
// when c2 is non-empty, the occupancy scale when occB is. Each lane is
// colSweepFrom's cell, every product rounded before its add:
// (src + v1·c1) + v2·c2, then ·occA, then ·occB. dst may be src: a pair
// is loaded before it is stored.
TEXT ·colSweepPairs(SB), NOSPLIT, $0-152
	MOVQ     dst_base+0(FP), DI
	MOVQ     src_base+24(FP), SI
	MOVQ     c1_base+48(FP), R8
	MOVQ     c2_base+72(FP), R9
	MOVQ     occB_base+96(FP), R10
	MOVQ     dst_len+8(FP), CX
	ANDQ     $-2, CX
	MOVSD    v1+120(FP), X8
	UNPCKLPD X8, X8
	MOVSD    v2+128(FP), X9
	UNPCKLPD X9, X9
	MOVSD    occA+136(FP), X10
	UNPCKLPD X10, X10
	XORQ     BX, BX
	MOVQ     occB_len+104(FP), DX
	MOVQ     c2_len+80(FP), AX
	TESTQ    AX, AX
	JZ       one
	TESTQ    DX, DX
	JZ       twoTest
	JMP      twoScaleTest

two: // dst = src + v1·c1 + v2·c2
	MOVUPD (R8)(BX*8), X0
	MULPD  X8, X0
	MOVUPD (SI)(BX*8), X1
	ADDPD  X0, X1
	MOVUPD (R9)(BX*8), X2
	MULPD  X9, X2
	ADDPD  X2, X1
	MOVUPD X1, (DI)(BX*8)
	ADDQ   $2, BX

twoTest:
	CMPQ BX, CX
	JLT  two
	JMP  done

twoScale: // dst = (src + v1·c1 + v2·c2)·occA·occB
	MOVUPD (R8)(BX*8), X0
	MULPD  X8, X0
	MOVUPD (SI)(BX*8), X1
	ADDPD  X0, X1
	MOVUPD (R9)(BX*8), X2
	MULPD  X9, X2
	ADDPD  X2, X1
	MULPD  X10, X1
	MOVUPD (R10)(BX*8), X3
	MULPD  X3, X1
	MOVUPD X1, (DI)(BX*8)
	ADDQ   $2, BX

twoScaleTest:
	CMPQ BX, CX
	JLT  twoScale
	JMP  done

one:
	TESTQ DX, DX
	JZ    oneTest
	JMP   oneScaleTest

oneLoop: // dst = src + v1·c1
	MOVUPD (R8)(BX*8), X0
	MULPD  X8, X0
	MOVUPD (SI)(BX*8), X1
	ADDPD  X0, X1
	MOVUPD X1, (DI)(BX*8)
	ADDQ   $2, BX

oneTest:
	CMPQ BX, CX
	JLT  oneLoop
	JMP  done

oneScale: // dst = (src + v1·c1)·occA·occB
	MOVUPD (R8)(BX*8), X0
	MULPD  X8, X0
	MOVUPD (SI)(BX*8), X1
	ADDPD  X0, X1
	MULPD  X10, X1
	MOVUPD (R10)(BX*8), X3
	MULPD  X3, X1
	MOVUPD X1, (DI)(BX*8)
	ADDQ   $2, BX

oneScaleTest:
	CMPQ BX, CX
	JLT  oneScale

done:
	MOVQ CX, ret+144(FP)
	RET
