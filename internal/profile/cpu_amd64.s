#include "textflag.h"

// func hasAVX2() bool
//
// AVX2 is usable when CPUID reports it (leaf 7, EBX bit 5) and the
// operating system saves the XMM and YMM state on a context switch:
// leaf 1 reports OSXSAVE (ECX bit 27) and AVX (bit 28), and XCR0 has
// bits 1 and 2 set.
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL  AX, AX
	XORL  CX, CX
	CPUID
	CMPL  AX, $7
	JLT   no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	SHRL  $5, BX
	ANDL  $1, BX
	MOVB  BX, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
