#include "textflag.h"

// Column-pair kernels for the engine's pack and store: 2-column transposes
// between a vector's interleaved (even, odd) element pairs and the bin-major
// Re/Im planes, two columns per XMM register, with the store's epilogue
// applied in each lane by the Go loop's operations — the bias sum z+bias
// with z first, and max(x, 0) as the compiler lowers it, -min(-x, -0) with
// the min taken twice and OR'd — so every element gets the Go loop's bits,
// NaNs and signed zeros included. SSE2 only.

// STORESETUP loads the store's pointers: R8 and R9 the pair's Re and Im
// cursors, DI the first column's output and SI the second's (b = 2h
// elements on), CX the rows left and R12 the row pitch in bytes.
#define STORESETUP \
	MOVQ seg+0(FP), DI; \
	MOVQ zRe+8(FP), R8; \
	MOVQ zIm+16(FP), R9; \
	MOVQ pitch+24(FP), R12; \
	SHLQ $3, R12; \
	MOVQ h+32(FP), CX; \
	MOVQ CX, AX; \
	SHLQ $4, AX; \
	LEAQ (DI)(AX*1), SI

// STOREROW loads row j of the two columns and transposes it: X0 gets the
// first column's (Re, Im) and X2 the second's.
#define STOREROW \
	MOVUPD   (R8), X0; \
	MOVUPD   (R9), X1; \
	MOVAPD   X0, X2; \
	UNPCKLPD X1, X0; \
	UNPCKHPD X1, X2

// STORENEXT writes X0 and X2 and steps to the next row.
#define STORENEXT \
	MOVUPD X0, (DI); \
	MOVUPD X2, (SI); \
	ADDQ   R12, R8; \
	ADDQ   R12, R9; \
	ADDQ   $16, DI; \
	ADDQ   $16, SI; \
	DECQ   CX

// BIAS adds the bias pairs at DX (first column) and BX (second), z first.
#define BIAS \
	MOVUPD (DX), X3; \
	ADDPD  X3, X0; \
	MOVUPD (BX), X3; \
	ADDPD  X3, X2; \
	ADDQ   $16, DX; \
	ADDQ   $16, BX

// RELU replaces x by max(x, 0) as Go computes it on amd64:
// a = -x, m = min(a, -0), x = -(min(m, a) | m), with X15 = -0 (the sign
// mask) and t0, t1 temporaries. MINPD returns its source operand on a NaN
// or a tie of zeros, as MINSD does.
#define RELU(x, t0, t1) \
	XORPD  X15, x; \
	MOVAPD x, t0; \
	MINPD  X15, x; \
	MOVAPD x, t1; \
	MINPD  t0, x; \
	ORPD   t1, x; \
	XORPD  X15, x

// BIASSETUP points DX at the first column's bias and BX at the second's.
#define BIASSETUP \
	MOVQ bias+40(FP), DX; \
	MOVQ h+32(FP), BX; \
	SHLQ $4, BX; \
	ADDQ DX, BX

// func packx2(zRe, zIm, x *float64, perm *int32, pitch, half, b, pairs int)
//
// For each packed row j (written at row perm[j], from column col0 on, where
// zRe and zIm point) and each pair of blocks (2q, 2q+1): Re gets the pair's
// x[i·b+2j] and Im its x[i·b+2j+1].
TEXT ·packx2(SB), NOSPLIT, $0-64
	MOVQ zRe+0(FP), R8
	MOVQ zIm+8(FP), R9
	MOVQ x+16(FP), R10
	MOVQ perm+24(FP), R11
	MOVQ pitch+32(FP), R12
	SHLQ $3, R12
	MOVQ half+40(FP), CX
	MOVQ b+48(FP), R13
	SHLQ $3, R13

row:
	MOVLQSX (R11), AX
	IMULQ   R12, AX
	LEAQ    (R8)(AX*1), DI
	LEAQ    (R9)(AX*1), SI
	MOVQ    R10, BX
	MOVQ    pairs+56(FP), DX

pair:
	MOVUPD   (BX), X0
	MOVUPD   (BX)(R13*1), X1
	MOVAPD   X0, X2
	UNPCKLPD X1, X0
	UNPCKHPD X1, X2
	MOVUPD   X0, (DI)
	MOVUPD   X2, (SI)
	LEAQ     (BX)(R13*2), BX
	ADDQ     $16, DI
	ADDQ     $16, SI
	DECQ     DX
	JNZ      pair
	ADDQ     $4, R11
	ADDQ     $16, R10
	DECQ     CX
	JNZ      row
	RET

// func storex2(seg, zRe, zIm *float64, pitch, h int)
//
// Two adjacent columns, h ≥ 1 rows each, into seg[0:2h] and seg[2h:4h].
TEXT ·storex2(SB), NOSPLIT, $0-40
	STORESETUP

copyrow:
	STOREROW
	STORENEXT
	JNZ copyrow
	RET

// func storeBiasx2(seg, zRe, zIm *float64, pitch, h int, bias *float64)
//
// storex2 with bias[0:4h] added; bias may be seg itself.
TEXT ·storeBiasx2(SB), NOSPLIT, $0-48
	STORESETUP
	BIASSETUP

biasrow:
	STOREROW
	BIAS
	STORENEXT
	JNZ biasrow
	RET

// func storeBiasReLUx2(seg, zRe, zIm *float64, pitch, h int, bias *float64)
//
// storeBiasx2 followed by max(·, 0).
TEXT ·storeBiasReLUx2(SB), NOSPLIT, $0-48
	STORESETUP
	BIASSETUP
	MOVQ  $0x8000000000000000, AX
	MOVQ  AX, X15
	UNPCKLPD X15, X15

relurow:
	STOREROW
	BIAS
	RELU(X0, X4, X5)
	RELU(X2, X4, X5)
	STORENEXT
	JNZ relurow
	RET
