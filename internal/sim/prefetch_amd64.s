#include "go_asm.h"
#include "textflag.h"

// func prefetchWindow(win []view.Entry)
//
// Issues PREFETCHT0 on every 64-byte line that holds a byte of win: the
// walk starts at the line of the first entry, even when the window
// begins mid-line, and stops past the line of the last byte.
TEXT ·prefetchWindow(SB), NOSPLIT, $0-24
	MOVQ win_base+0(FP), AX
	MOVQ win_len+8(FP), CX
	TESTQ CX, CX
	JEQ done
	IMULQ $const_entryBytes, CX
	ADDQ AX, CX
	ANDQ $~63, AX

loop:
	PREFETCHT0 (AX)
	ADDQ $64, AX
	CMPQ AX, CX
	JCS loop

done:
	RET
