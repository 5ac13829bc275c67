#include "textflag.h"

// spread<> maps a MOVMSKPD lane mask to two bytes, lane k's bit as
// bit 0 of byte k: 0 → 0x0000, 1 → 0x0001, 2 → 0x0100, 3 → 0x0101.
DATA spread<>+0(SB)/8, $0x0101010000010000
GLOBL spread<>(SB), RODATA|NOPTR, $8

// func rowMXPairs(cM, cX []float64, tb []byte, pM, pX, pY, s []float64, openA, extA float64) int
//
// rowMX's loop over the whole pairs of cells [0, len(s)&^1), two cells
// per SSE2 instruction. Each comparison is the Go loop's, operands in
// its order, predicate LT (CMPPD src, dst, $1 sets dst = dst < src).
TEXT ·rowMXPairs(SB), NOSPLIT, $0-192
	MOVQ cM_base+0(FP), DI
	MOVQ cX_base+24(FP), SI
	MOVQ tb_base+48(FP), DX
	MOVQ pM_base+72(FP), R8
	MOVQ pX_base+96(FP), R9
	MOVQ pY_base+120(FP), R10
	MOVQ s_base+144(FP), R11
	MOVQ s_len+152(FP), CX
	ANDQ $-2, CX
	MOVSD openA+168(FP), X8
	UNPCKLPD X8, X8
	MOVSD extA+176(FP), X9
	UNPCKLPD X9, X9
	LEAQ spread<>(SB), R13
	XORQ BX, BX
	JMP test

loop:
	// M: bs = min(m0, x0), cM = min(bs, y0) - s.
	MOVUPD (R8)(BX*8), X0    // m0
	MOVUPD (R9)(BX*8), X1    // x0
	MOVUPD (R10)(BX*8), X2   // y0
	MOVAPD X1, X4
	CMPPD  X0, X4, $1        // gx = x0 < m0
	MINPD  X1, X0            // bs
	MOVAPD X2, X5
	CMPPD  X0, X5, $1        // gy = y0 < bs
	MINPD  X2, X0
	MOVUPD (R11)(BX*8), X3
	SUBPD  X3, X0
	MOVUPD X0, (DI)(BX*8)

	// X from the cells above: cX = min(m1+openA, x1+extA).
	MOVUPD 8(R8)(BX*8), X0   // m1
	MOVUPD 8(R9)(BX*8), X1   // x1
	ADDPD  X8, X0            // openX
	ADDPD  X9, X1            // extX
	MOVAPD X1, X6
	CMPPD  X0, X6, $1        // bx = extX < openX
	MINPD  X1, X0
	MOVUPD X0, (SI)(BX*8)

	// tb = gx&^gy | gy<<1 | bx<<2, one byte per cell; the three fields
	// are disjoint, so LEAL's adds are ORs.
	MOVAPD   X5, X7
	ANDNPD   X4, X7          // gx &^ gy
	MOVMSKPD X7, AX
	MOVWLZX  (R13)(AX*2), AX
	MOVMSKPD X5, R12
	MOVWLZX  (R13)(R12*2), R12
	LEAL     (AX)(R12*2), AX
	MOVMSKPD X6, R12
	MOVWLZX  (R13)(R12*2), R12
	LEAL     (AX)(R12*4), AX
	MOVW     AX, (DX)(BX*1)
	ADDQ     $2, BX

test:
	CMPQ BX, CX
	JLT  loop
	MOVQ CX, ret+184(FP)
	RET
