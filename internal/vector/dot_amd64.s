#include "textflag.h"

// func dot4Lanes(q, r []float32, stride int, lanes *[16]float32)
//
// For each of the four rows r[j*stride:][:len(q)&^3], j < 4, lanes[4j+l]
// is the sum over blocks b of q[4b+l]*r[j*stride+4b+l], accumulated in
// block order with a float32 rounding after every multiply and every add —
// Dot's four lanes exactly. One XMM accumulator per row; the four rows
// share each query load. SSE2 only.
TEXT ·dot4Lanes(SB), NOSPLIT, $0-64
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ r_base+24(FP), DI
	MOVQ stride+48(FP), DX
	MOVQ lanes+56(FP), AX
	SHLQ $2, DX
	LEAQ (DI)(DX*1), R8
	LEAQ (R8)(DX*1), R9
	LEAQ (R9)(DX*1), R10
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	SHRQ $2, CX
	JZ   done

loop:
	MOVUPS (SI), X4
	MOVUPS (DI), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS (R8), X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVUPS (R9), X7
	MULPS  X4, X7
	ADDPS  X7, X2
	MOVUPS (R10), X8
	MULPS  X4, X8
	ADDPS  X8, X3
	ADDQ   $16, SI
	ADDQ   $16, DI
	ADDQ   $16, R8
	ADDQ   $16, R9
	ADDQ   $16, R10
	DECQ   CX
	JNZ    loop

done:
	MOVUPS X0, 0(AX)
	MOVUPS X1, 16(AX)
	MOVUPS X2, 32(AX)
	MOVUPS X3, 48(AX)
	RET
