#include "textflag.h"

// func pairSweep(st *sweepState, m, x, y, s0, s1, openB, extB []float64, tb0, tb1 []byte)
//
// pairSweepGo's loop, lane k of every pair in the low (k = 0) or high
// (k = 1) half of an XMM register. Each comparison is cellStep's,
// operands in its order, predicate LT (CMPPD src, dst, $1 sets
// dst = dst < src); MINPD src, dst sets dst = dst < src ? dst : src,
// which is Y's select exactly and M's and X's min up to a zero's sign.
//
// Registers across steps: X0–X2 the diagonal M, X, Y; X3–X5 the left
// M, X, Y (the last step's cells); X6, X7 the A-column gap costs. Step
// t's above vector pairs the row above at column t+1 with lane 0's last
// cell, and becomes step t+1's diagonal. tb1's base is in CX so that
// lane 1's byte can be stored from AH, whose encoding takes no REX
// prefix; R14 is scratch in ABI0.
TEXT ·pairSweep(SB), NOSPLIT, $0-224
	MOVQ   st+0(FP), AX
	MOVUPD 0(AX), X0
	MOVUPD 16(AX), X1
	MOVUPD 32(AX), X2
	MOVUPD 48(AX), X3
	MOVUPD 64(AX), X4
	MOVUPD 80(AX), X5
	MOVUPD 96(AX), X6
	MOVUPD 112(AX), X7
	MOVQ   m_base+8(FP), DI
	MOVQ   x_base+32(FP), SI
	MOVQ   y_base+56(FP), DX
	MOVQ   s0_base+80(FP), R8
	MOVQ   s1_base+104(FP), R9
	MOVQ   openB_base+128(FP), R10
	MOVQ   extB_base+152(FP), R11
	MOVQ   tb0_base+176(FP), R14
	MOVQ   tb1_base+200(FP), CX
	LEAQ   ·pairTB(SB), R13
	XORQ   BX, BX
	JMP    test

loop:
	// Above: lane 0 the row above at this column, lane 1 lane 0's last cell.
	MOVSD    8(DI)(BX*8), X8
	UNPCKLPD X3, X8           // uM
	MOVSD    8(SI)(BX*8), X9
	UNPCKLPD X4, X9           // uX
	MOVSD    8(DX)(BX*8), X10
	UNPCKLPD X5, X10          // uY

	// Y from the left: extY < openY ? extY : openY, lane 0's gap costs
	// at openB/extB[t+1] and lane 1's at [t].
	MOVSD    8(R10)(BX*8), X11
	MOVHPD   (R10)(BX*8), X11
	ADDPD    X3, X11          // openY = lM + openB
	MOVSD    8(R11)(BX*8), X12
	MOVHPD   (R11)(BX*8), X12
	ADDPD    X12, X5          // extY = lY + extB
	MOVAPD   X5, X13
	CMPPD    X11, X13, $1     // by = extY < openY
	MINPD    X11, X5          // Y

	// M from the diagonal: bs = min(dM, dX), M = min(bs, dY) - s.
	MOVAPD X1, X14
	CMPPD  X0, X14, $1        // gx = dX < dM
	MINPD  X1, X0             // bs
	MOVAPD X2, X15
	CMPPD  X0, X15, $1        // gy = dY < bs
	MINPD  X2, X0
	MOVSD  (R8)(BX*8), X12
	MOVHPD (R9)(BX*8), X12
	SUBPD  X12, X0
	MOVAPD X0, X3             // M

	// X from above: min(uM+openA, uX+extA).
	MOVAPD X8, X4
	ADDPD  X6, X4             // openX
	MOVAPD X9, X12
	ADDPD  X7, X12            // extX
	MOVAPD X12, X11
	CMPPD  X4, X11, $1        // bx = extX < openX
	MINPD  X12, X4            // X

	// Lane 1's cell goes one column behind the loads; above becomes
	// the next diagonal.
	MOVHPD X3, (DI)(BX*8)
	MOVHPD X4, (SI)(BX*8)
	MOVHPD X5, (DX)(BX*8)
	MOVAPD X8, X0
	MOVAPD X9, X1
	MOVAPD X10, X2

	// Traceback: PACKSSLW (PACKSSDW) turns two pairs of lane masks into
	// four dword masks, so two MOVMSKPS make pairTB's index.
	PACKSSLW X15, X14         // gx | gy<<2
	PACKSSLW X13, X11         // bx | by<<2
	MOVMSKPS X14, AX
	MOVMSKPS X11, R12
	SHLL     $4, R12
	ORL      R12, AX
	MOVWLZX  (R13)(AX*2), AX
	MOVB     AX, (R14)(BX*1)
	MOVB     AH, (CX)(BX*1)
	INCQ     BX

test:
	CMPQ BX, tb0_len+184(FP)
	JLT  loop
	MOVQ   st+0(FP), AX
	MOVUPD X0, 0(AX)
	MOVUPD X1, 16(AX)
	MOVUPD X2, 32(AX)
	MOVUPD X3, 48(AX)
	MOVUPD X4, 64(AX)
	MOVUPD X5, 80(AX)
	RET
