#include "textflag.h"

// func callerFP() unsafe.Pointer
//
// NOFRAME keeps BP untouched, so it still holds the frame pointer of the
// function that called callerFP.
TEXT ·callerFP(SB), NOSPLIT|NOFRAME, $0-8
	MOVQ BP, AX
	MOVQ AX, ret+0(FP)
	RET
