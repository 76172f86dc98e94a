#include "textflag.h"

// The bin product of outputColumns for bins 1 … half-1 over whole vectors,
// two output blocks per XMM register: for each row, vector and pair of
// output blocks (2p, 2p+1), each lane accumulates its block's sum over the
// input blocks i = 0 … inBlks-1 in that order, starting from +0, with the Go
// loop's expression tree — no fused multiply-add, no reassociation — so each
// accumulator gets the Go loop's bits. SSE2 only.
//
// acc, w and x address the first whole vector's columns in bin row 1 of the
// accumulators, the weight table and the input spectra; rows ≥ 1, vecs ≥ 1,
// inBlks ≥ 1 and outBlks ≥ 2. An odd last output block is skipped.
//
// Registers: R8 weight row, R10 input row, R12 accumulator row, with the
// Im planes at the constant offsets R9, R11 and R13; BX the vector's
// inputs, AX its accumulators, DX the pair's weights, and SI, DI (and R15)
// the cursors of the sweep over input blocks.

// BINSETUP loads the row pointers, the Im plane offsets and R14 = k*8.
#define BINSETUP \
	MOVQ k+104(FP), R14; \
	SHLQ $3, R14; \
	MOVQ wRe+16(FP), R8; \
	MOVQ wIm+24(FP), R9; \
	SUBQ R8, R9; \
	MOVQ xRe+32(FP), R10; \
	MOVQ xIm+40(FP), R11; \
	SUBQ R10, R11; \
	MOVQ accRe+0(FP), R12; \
	MOVQ accIm+8(FP), R13; \
	SUBQ R12, R13; \
	MOVQ rows+48(FP), CX; \
	MOVQ CX, rowsLeft-8(SP)

// BININPUT broadcasts input block i's (yr, yi) into X4, X5.
#define BININPUT \
	MOVSD    (SI), X4; \
	UNPCKLPD X4, X4; \
	MOVSD    (SI)(R11*1), X5; \
	UNPCKLPD X5, X5

// BINSTORE stores the pair's accumulators and steps to the next pair's.
#define BINSTORE \
	MOVUPD X0, (AX); \
	MOVUPD X1, (AX)(R13*1); \
	ADDQ   $16, AX

// BINNEXT ends a pair, a vector and a row: past an odd last output block to
// the next vector, then to the next bin row.
#define BINNEXT \
	DECQ pairsLeft-24(SP); \
	JNZ  pair; \
	MOVQ outBlks+72(FP), CX; \
	ANDQ $1, CX; \
	LEAQ (AX)(CX*8), AX; \
	MOVQ inBlks+64(FP), CX; \
	LEAQ (BX)(CX*8), BX; \
	DECQ vecsLeft-16(SP); \
	JNZ  vec; \
	MOVQ kl+96(FP), CX; \
	LEAQ (R8)(CX*8), R8; \
	MOVQ pitch+80(FP), CX; \
	LEAQ (R10)(CX*8), R10; \
	MOVQ opitch+88(FP), CX; \
	LEAQ (R12)(CX*8), R12; \
	DECQ rowsLeft-8(SP); \
	JNZ  row

// BINROW starts a bin row at the first whole vector.
#define BINROW \
	MOVQ R10, BX; \
	MOVQ R12, AX; \
	MOVQ vecs+56(FP), CX; \
	MOVQ CX, vecsLeft-16(SP)

// BINVEC starts a vector at its first pair of output blocks.
#define BINVEC \
	MOVQ R8, DX; \
	MOVQ outBlks+72(FP), CX; \
	SHRQ $1, CX; \
	MOVQ CX, pairsLeft-24(SP)

// func binTransx2(accRe, accIm, wRe, wIm, xRe, xIm *float64, rows, vecs, inBlks, outBlks, pitch, opitch, kl, k int)
//
// The correlation form (Wᵀ·x): block o's weights run contiguous in i from
// o·k, so a pair gathers its two at stride k; aR += sr*yr + si*yi and
// aI += sr*yi - si*yr.
TEXT ·binTransx2(SB), NOSPLIT, $24-112
	BINSETUP

row:
	BINROW

vec:
	BINVEC

pair:
	MOVQ  BX, SI
	MOVQ  DX, DI
	LEAQ  (DX)(R14*1), R15
	XORPD X0, X0
	XORPD X1, X1
	MOVQ  inBlks+64(FP), CX

blk:
	BININPUT
	MOVSD  (DI), X6
	MOVHPD (R15), X6          // sr
	MOVSD  (DI)(R9*1), X7
	MOVHPD (R15)(R9*1), X7    // si
	MOVAPD X6, X8
	MULPD  X4, X8             // sr*yr
	MOVAPD X7, X9
	MULPD  X5, X9             // si*yi
	ADDPD  X9, X8
	ADDPD  X8, X0             // aR += sr*yr + si*yi
	MULPD  X5, X6             // sr*yi
	MULPD  X4, X7             // si*yr
	SUBPD  X7, X6
	ADDPD  X6, X1             // aI += sr*yi - si*yr
	ADDQ   $8, SI
	ADDQ   $8, DI
	ADDQ   $8, R15
	DECQ   CX
	JNZ    blk
	BINSTORE
	LEAQ (DX)(R14*2), DX      // next pair: two blocks of k weights on
	BINNEXT
	RET

// func binConvx2(accRe, accIm, wRe, wIm, xRe, xIm *float64, rows, vecs, inBlks, outBlks, pitch, opitch, kl, k int)
//
// The convolution form (W·x): a pair's two weights are adjacent and the
// sweep steps k weights per input block; aR += sr*yr - si*yi and
// aI += sr*yi + si*yr.
TEXT ·binConvx2(SB), NOSPLIT, $24-112
	BINSETUP

row:
	BINROW

vec:
	BINVEC

pair:
	MOVQ  BX, SI
	MOVQ  DX, DI
	XORPD X0, X0
	XORPD X1, X1
	MOVQ  inBlks+64(FP), CX

blk:
	BININPUT
	MOVUPD (DI), X6           // sr
	MOVUPD (DI)(R9*1), X7     // si
	MOVAPD X6, X8
	MULPD  X4, X8             // sr*yr
	MOVAPD X7, X9
	MULPD  X5, X9             // si*yi
	SUBPD  X9, X8
	ADDPD  X8, X0             // aR += sr*yr - si*yi
	MULPD  X5, X6             // sr*yi
	MULPD  X4, X7             // si*yr
	ADDPD  X7, X6
	ADDPD  X6, X1             // aI += sr*yi + si*yr
	ADDQ   $8, SI
	ADDQ   R14, DI
	DECQ   CX
	JNZ    blk
	BINSTORE
	ADDQ $16, DX              // next pair: the next two weights
	BINNEXT
	RET
