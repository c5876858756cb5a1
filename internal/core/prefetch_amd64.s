#include "textflag.h"

// func Prefetch(p unsafe.Pointer, n uintptr)
//
// Issues PREFETCHT0 on every 64-byte line that holds a byte of
// [p, p+n): the walk starts at the line of p, even when p is mid-line,
// and stops past the line of the last byte.
TEXT ·Prefetch(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ n+8(FP), CX
	TESTQ CX, CX
	JEQ done
	ADDQ AX, CX
	ANDQ $~63, AX

loop:
	PREFETCHT0 (AX)
	ADDQ $64, AX
	CMPQ AX, CX
	JCS loop

done:
	RET
