#include "textflag.h"

// func quadSweep(st *sweepState, m, x, y, s, openB, extB []float64, tb []byte, sStride int)
//
// sweepGo's loop for h = 4, lane k in element k of a YMM register.
// Each comparison is cellStep's, operands in its order, predicate LT
// (VCMPPD $1, b, a, dst sets dst = a < b); VMINPD b, a, dst sets
// dst = a < b ? a : b, which is Y's select exactly and M's and X's min
// up to a zero's sign. There is no fused multiply-add.
//
// Registers across steps: Y0–Y2 the diagonal M, X, Y; Y3–Y5 the left
// M, X, Y (the last step's cells); Y6, Y7 the A-column gap costs. Each
// step rotates the last cells up one lane (VPERMPD), so element 0 holds
// lane 3's last cell, which goes to the rolling rows, and then blends
// in the row above at column t+4: that is the step's above vector, and
// the next step's diagonal. BX counts from −w up to 0, with the bases
// of the rolling rows, the gap costs and the traceback words advanced
// by w entries to match. The four lanes' scores sit sStride entries
// apart from R8, lane 3's addressed from R12; both move one entry a
// step. The loop runs two steps an iteration, the second with the
// diagonal and above registers swapped, so nothing is copied between
// steps. QSTEP's X arguments name the above registers' low halves; its
// last five are the step's displacements from the bases: above,
// rolling-row store, gap costs, scores, traceback.
#define QSTEP(D0, D1, D2, U0, U1, U2, XU0, XU1, XU2, A, S, G, C, T) \
	VPERMPD      $0x93, Y3, U0; \
	VPERMPD      $0x93, Y4, U1; \
	VPERMPD      $0x93, Y5, U2; \
	VMOVSD       XU0, S(DI)(BX*8); \
	VMOVSD       XU1, S(SI)(BX*8); \
	VMOVSD       XU2, S(DX)(BX*8); \
	VBROADCASTSD A(DI)(BX*8), Y11; \
	VBLENDPD     $1, Y11, U0, U0; \
	VBROADCASTSD A(SI)(BX*8), Y11; \
	VBLENDPD     $1, Y11, U1, U1; \
	VBROADCASTSD A(DX)(BX*8), Y11; \
	VBLENDPD     $1, Y11, U2, U2; \
	VPERMPD      $0x1b, G(CX)(BX*8), Y11; \
	VADDPD       Y3, Y11, Y11; \
	VPERMPD      $0x1b, G(R14)(BX*8), Y12; \
	VADDPD       Y12, Y5, Y5; \
	VCMPPD       $1, Y11, Y5, Y13; \
	VMINPD       Y11, Y5, Y5; \
	VCMPPD       $1, D0, D1, Y14; \
	VMINPD       D1, D0, D0; \
	VCMPPD       $1, D0, D2, Y15; \
	VMINPD       D2, D0, D0; \
	VMOVSD       C(R8), X12; \
	VBROADCASTSD C(R8)(R9*1), Y11; \
	VBLENDPD     $2, Y11, Y12, Y12; \
	VBROADCASTSD C(R8)(R9*2), Y11; \
	VBLENDPD     $4, Y11, Y12, Y12; \
	VBROADCASTSD C(R12), Y11; \
	VBLENDPD     $8, Y11, Y12, Y12; \
	VSUBPD       Y12, D0, Y3; \
	VADDPD       Y6, U0, Y4; \
	VADDPD       Y7, U1, Y12; \
	VCMPPD       $1, Y4, Y12, Y11; \
	VMINPD       Y12, Y4, Y4; \
	VPACKSSDW    Y15, Y14, Y14; \
	VPACKSSDW    Y13, Y11, Y11; \
	VPERM2F128   $0x20, Y11, Y14, Y12; \
	VMOVMSKPS    Y12, AX; \
	VPERM2F128   $0x31, Y11, Y14, Y12; \
	VMOVMSKPS    Y12, R10; \
	MOVWLZX      (R13)(AX*2), AX; \
	MOVWLZX      (R13)(R10*2), R10; \
	SHLL         $16, R10; \
	ORL          R10, AX; \
	MOVL         AX, T(R11)(BX*4)

// One step, in order:
//
//   - above: the last cells rotated up one lane, lane 3's stored one
//     column behind lane 0's loads (lane 3's left cell at the first
//     step), then the row above at this column blended into lane 0;
//   - Y from the left, extY < openY ? extY : openY, lane k's gap costs
//     at openB/extB[t+3−k]: one load, reversed; by = extY < openY;
//   - M from the diagonal: gx = dX < dM, bs = min(dM, dX),
//     gy = dY < bs, M = min(bs, dY) − s, the four lanes' scores
//     gathered by broadcast and blend;
//   - X from above: bx = extX < openX, X = min(uM+openA, uX+extA);
//   - traceback: VPACKSSDW turns the masks into dwords, gx, gy of lanes
//     0–1 in the low half and of lanes 2–3 in the high one, and the
//     same for bx, by; VPERM2F128 pairs the halves, so each VMOVMSKPS
//     is the pairTB index of two lanes, and the two entries make the
//     step's four bytes.
TEXT ·quadSweep(SB), NOSPLIT, $0-184
	MOVQ    st+0(FP), AX
	VMOVUPD 0(AX), Y0
	VMOVUPD 32(AX), Y1
	VMOVUPD 64(AX), Y2
	VMOVUPD 96(AX), Y3
	VMOVUPD 128(AX), Y4
	VMOVUPD 160(AX), Y5
	VMOVUPD 192(AX), Y6
	VMOVUPD 224(AX), Y7
	MOVQ    m_len+16(FP), BX
	SUBQ    $4, BX                  // w
	MOVQ    m_base+8(FP), DI
	LEAQ    (DI)(BX*8), DI
	MOVQ    x_base+32(FP), SI
	LEAQ    (SI)(BX*8), SI
	MOVQ    y_base+56(FP), DX
	LEAQ    (DX)(BX*8), DX
	MOVQ    openB_base+104(FP), CX
	LEAQ    (CX)(BX*8), CX
	MOVQ    extB_base+128(FP), R14
	LEAQ    (R14)(BX*8), R14
	MOVQ    s_base+80(FP), R8
	MOVQ    sStride+176(FP), R9
	SHLQ    $3, R9
	LEAQ    (R8)(R9*2), R12
	ADDQ    R9, R12                 // lane 3's scores
	MOVQ    tb_base+152(FP), R11
	LEAQ    (R11)(BX*4), R11
	LEAQ    ·pairTB(SB), R13
	NEGQ    BX
	JZ      done
	TESTQ   $1, BX
	JZ      loop

	// An odd step first, so the loop runs whole pairs.
	QSTEP(Y0, Y1, Y2, Y8, Y9, Y10, X8, X9, X10, 32, 0, 0, 0, 0)
	VMOVAPD Y8, Y0
	VMOVAPD Y9, Y1
	VMOVAPD Y10, Y2
	ADDQ    $8, R8
	ADDQ    $8, R12
	INCQ    BX
	JZ      done

loop:
	QSTEP(Y0, Y1, Y2, Y8, Y9, Y10, X8, X9, X10, 32, 0, 0, 0, 0)
	QSTEP(Y8, Y9, Y10, Y0, Y1, Y2, X0, X1, X2, 40, 8, 8, 8, 4)
	ADDQ $16, R8
	ADDQ $16, R12
	ADDQ $2, BX
	JNZ  loop

done:
	// Lane 3's last cell, one column behind the last load.
	VEXTRACTF128 $1, Y3, X8
	VMOVHPD      X8, (DI)(BX*8)
	VEXTRACTF128 $1, Y4, X8
	VMOVHPD      X8, (SI)(BX*8)
	VEXTRACTF128 $1, Y5, X8
	VMOVHPD      X8, (DX)(BX*8)
	MOVQ         st+0(FP), AX
	VMOVUPD      Y0, 0(AX)
	VMOVUPD      Y1, 32(AX)
	VMOVUPD      Y2, 64(AX)
	VMOVUPD      Y3, 96(AX)
	VMOVUPD      Y4, 128(AX)
	VMOVUPD      Y5, 160(AX)
	VZEROUPPER
	RET
