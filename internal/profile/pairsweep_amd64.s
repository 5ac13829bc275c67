#include "textflag.h"

// func pairSweep(st *sweepState, m, x, y, s, openB, extB []float64, tb []byte, sStride int)
//
// sweepGo's loop for h = 2, lane k of every pair in the low (k = 0) or
// high (k = 1) half of an XMM register. Each comparison is cellStep's,
// operands in its order, predicate LT (CMPPD src, dst, $1 sets
// dst = dst < src); MINPD src, dst sets dst = dst < src ? dst : src,
// which is Y's select exactly and M's and X's min up to a zero's sign.
//
// Registers across steps: X0–X2 the diagonal M, X, Y; X3–X5 the left
// M, X, Y (the last step's cells); X6, X7 the A-column gap costs. Step
// t's above vector pairs the row above at column t+2 with lane 0's last
// cell, and becomes step t+1's diagonal. BX counts from −w up to 0, and
// every base is advanced by w entries to match; R14 is scratch in ABI0.
TEXT ·pairSweep(SB), NOSPLIT, $0-184
	MOVQ   st+0(FP), AX
	MOVUPD 0(AX), X0
	MOVUPD 32(AX), X1
	MOVUPD 64(AX), X2
	MOVUPD 96(AX), X3
	MOVUPD 128(AX), X4
	MOVUPD 160(AX), X5
	MOVUPD 192(AX), X6
	MOVUPD 224(AX), X7
	MOVQ   m_len+16(FP), BX
	SUBQ   $2, BX                  // w
	MOVQ   m_base+8(FP), DI
	MOVQ   x_base+32(FP), SI
	MOVQ   y_base+56(FP), DX
	MOVHPD X3, (DI)                // lane 1's left cell
	MOVHPD X4, (SI)
	MOVHPD X5, (DX)
	LEAQ   (DI)(BX*8), DI
	LEAQ   (SI)(BX*8), SI
	LEAQ   (DX)(BX*8), DX
	MOVQ   s_base+80(FP), R8
	LEAQ   (R8)(BX*8), R8
	MOVQ   sStride+176(FP), R9
	LEAQ   (R8)(R9*8), R9          // lane 1's scores
	MOVQ   openB_base+104(FP), R10
	LEAQ   (R10)(BX*8), R10
	MOVQ   extB_base+128(FP), R11
	LEAQ   (R11)(BX*8), R11
	MOVQ   tb_base+152(FP), R14
	LEAQ   (R14)(BX*2), R14
	LEAQ   ·pairTB(SB), R13
	NEGQ   BX
	JZ     done

loop:
	// Above: lane 0 the row above at this column, lane 1 lane 0's last cell.
	MOVSD    16(DI)(BX*8), X8
	UNPCKLPD X3, X8           // uM
	MOVSD    16(SI)(BX*8), X9
	UNPCKLPD X4, X9           // uX
	MOVSD    16(DX)(BX*8), X10
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
	MOVHPD X3, 8(DI)(BX*8)
	MOVHPD X4, 8(SI)(BX*8)
	MOVHPD X5, 8(DX)(BX*8)
	MOVAPD X8, X0
	MOVAPD X9, X1
	MOVAPD X10, X2

	// Traceback: PACKSSLW (PACKSSDW) turns two pairs of lane masks into
	// four dword masks, so two MOVMSKPS make pairTB's index, whose entry
	// is the step's two bytes.
	PACKSSLW X15, X14         // gx | gy<<2
	PACKSSLW X13, X11         // bx | by<<2
	MOVMSKPS X14, AX
	MOVMSKPS X11, R12
	SHLL     $4, R12
	ORL      R12, AX
	MOVWLZX  (R13)(AX*2), AX
	MOVW     AX, (R14)(BX*2)
	INCQ     BX
	JNZ      loop

done:
	MOVQ   st+0(FP), AX
	MOVUPD X0, 0(AX)
	MOVUPD X1, 32(AX)
	MOVUPD X2, 64(AX)
	MOVUPD X3, 96(AX)
	MOVUPD X4, 128(AX)
	MOVUPD X5, 160(AX)
	RET
