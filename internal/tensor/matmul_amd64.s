#include "textflag.h"

// The dense product of one row over a run of k inputs: orow[j] += av*b[p][j]
// for every p in order whose input av is not ±0, two output columns per XMM
// register. Each lane performs the Go loop's operations in its order and
// operand roles — the product is b[p][j]*av and the sum product+orow[j] —
// with no fused multiply-add, so every output gets the Go loop's bits. SSE2
// only.
//
// Registers: R8 arow, R9 the tile's first column in b's row 0, R10 the list
// of kept p, DX its length, R11 n*8, R13 the pairs left, DI the tile's
// first output; X8 the broadcast input, X9 the product.

// ACC adds one input's product into the accumulator x, whose columns sit
// off bytes into the tile.
#define ACC(off, x) \
	MOVUPD   off(AX), X9; \
	MULPD    X8, X9; \
	ADDPD    x, X9; \
	MOVAPD   X9, x

// LOADw, SWEEPw and STOREw load, update and store the accumulators of a
// tile of w column pairs, X0 … X(w-1).
#define LOAD1 MOVUPD 0(DI), X0
#define LOAD2 LOAD1; MOVUPD 16(DI), X1
#define LOAD3 LOAD2; MOVUPD 32(DI), X2
#define LOAD4 LOAD3; MOVUPD 48(DI), X3
#define LOAD5 LOAD4; MOVUPD 64(DI), X4
#define LOAD6 LOAD5; MOVUPD 80(DI), X5
#define LOAD7 LOAD6; MOVUPD 96(DI), X6
#define LOAD8 LOAD7; MOVUPD 112(DI), X7
#define SWEEP1 ACC(0, X0)
#define SWEEP2 SWEEP1; ACC(16, X1)
#define SWEEP3 SWEEP2; ACC(32, X2)
#define SWEEP4 SWEEP3; ACC(48, X3)
#define SWEEP5 SWEEP4; ACC(64, X4)
#define SWEEP6 SWEEP5; ACC(80, X5)
#define SWEEP7 SWEEP6; ACC(96, X6)
#define SWEEP8 SWEEP7; ACC(112, X7)
#define STORE1 MOVUPD X0, 0(DI)
#define STORE2 STORE1; MOVUPD X1, 16(DI)
#define STORE3 STORE2; MOVUPD X2, 32(DI)
#define STORE4 STORE3; MOVUPD X3, 48(DI)
#define STORE5 STORE4; MOVUPD X4, 64(DI)
#define STORE6 STORE5; MOVUPD X5, 80(DI)
#define STORE7 STORE6; MOVUPD X6, 96(DI)
#define STORE8 STORE7; MOVUPD X7, 112(DI)

// TILE runs one tile of w column pairs over the list, then steps to the
// next tile.
#define TILE(w, LOAD, SWEEP, STORE, loop) \
	LOAD; \
	XORQ     SI, SI; \
loop: \
	MOVQ     (R10)(SI*8), AX; \
	MOVSD    (R8)(AX*8), X8; \
	UNPCKLPD X8, X8; \
	IMULQ    R11, AX; \
	ADDQ     R9, AX; \
	SWEEP; \
	INCQ     SI; \
	CMPQ     SI, DX; \
	JLT      loop; \
	STORE; \
	ADDQ     $(16*w), DI; \
	ADDQ     $(16*w), R9; \
	SUBQ     $w, R13; \
	JMP      tile

// func matMulRowx2(orow, arow, b *float64, idx *int, k, n int)
//
// k ≥ 1 and n ≥ 1; idx has room for k entries.
TEXT ·matMulRowx2(SB), NOSPLIT, $0-48
	MOVQ arow+8(FP), R8
	MOVQ b+16(FP), R9
	MOVQ idx+24(FP), R10
	MOVQ k+32(FP), CX
	MOVQ n+40(FP), R11
	MOVQ orow+0(FP), DI

	// List the p with av ≠ ±0: store p at the list's end, and move the end
	// on by one when av's bits shifted past the sign are not zero (NEGQ
	// sets the carry exactly then). NaN inputs are kept, as av == 0 is
	// false for them.
	XORQ DX, DX
	XORQ AX, AX

list:
	MOVQ (R8)(AX*8), BX
	MOVQ AX, (R10)(DX*8)
	SHLQ $1, BX
	NEGQ BX
	ADCQ $0, DX
	INCQ AX
	CMPQ AX, CX
	JLT  list
	TESTQ DX, DX
	JEQ   done

	MOVQ R11, R13
	SHRQ $1, R13
	SHLQ $3, R11

tile:
	CMPQ R13, $8
	JGE  w8
	CMPQ R13, $4
	JGT  above4
	JEQ  w4
	CMPQ R13, $2
	JGT  w3
	JEQ  w2
	CMPQ R13, $1
	JEQ  w1
	JMP  odd

above4:
	CMPQ R13, $6
	JGT  w7
	JEQ  w6
	JMP  w5

w8:
	TILE(8, LOAD8, SWEEP8, STORE8, loop8)

w7:
	TILE(7, LOAD7, SWEEP7, STORE7, loop7)

w6:
	TILE(6, LOAD6, SWEEP6, STORE6, loop6)

w5:
	TILE(5, LOAD5, SWEEP5, STORE5, loop5)

w4:
	TILE(4, LOAD4, SWEEP4, STORE4, loop4)

w3:
	TILE(3, LOAD3, SWEEP3, STORE3, loop3)

w2:
	TILE(2, LOAD2, SWEEP2, STORE2, loop2)

w1:
	TILE(1, LOAD1, SWEEP1, STORE1, loop1)

	// An odd last column runs the same list with scalar operations.
odd:
	MOVQ n+40(FP), BX
	TESTQ $1, BX
	JEQ   done
	MOVSD (DI), X0
	XORQ  SI, SI

oddloop:
	MOVQ   (R10)(SI*8), AX
	MOVSD  (R8)(AX*8), X8
	IMULQ  R11, AX
	MOVSD  (R9)(AX*1), X9
	MULSD  X8, X9
	ADDSD  X0, X9
	MOVAPD X9, X0
	INCQ   SI
	CMPQ   SI, DX
	JLT    oddloop
	MOVSD  X0, (DI)

done:
	RET
