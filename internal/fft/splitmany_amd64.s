#include "textflag.h"

// Column-pair kernels for splitmany.go's row sweeps. Each XMM register holds
// one value of two adjacent columns, and each lane performs its column's Go
// expression tree operation for operation: no fused multiply-add, no
// reassociation, and a ±1 factor is a MULPD as Go's sign*x is a MULSD. So
// every column gets the bits of the Go loop. SSE2 only. re and im address
// row 0 of the span's first column, rows are stride elements apart, and
// pairs ≥ 1 counts the span's column pairs.

// BFLY stores lo+b to lo and lo-b to hi, through the temporaries t0 and t1.
#define BFLY(lo, hi, b, t0, t1) \
	MOVUPD lo, t0; \
	MOVAPD t0, t1; \
	ADDPD  b, t0; \
	SUBPD  b, t1; \
	MOVUPD t0, lo; \
	MOVUPD t1, hi

// CMUL multiplies (xr, xi) by the twiddle (wr, wi): the real part
// xr*wr - xi*wi lands in t0, the imaginary part xr*wi + xi*wr in xr. It
// clobbers xi and t1.
#define CMUL(xr, xi, wr, wi, t0, t1) \
	MOVAPD xr, t0; \
	MULPD  wr, t0; \
	MOVAPD xi, t1; \
	MULPD  wi, t1; \
	SUBPD  t1, t0; \
	MULPD  wi, xr; \
	MULPD  wr, xi; \
	ADDPD  xi, xr

// RADIX4 runs stages 1+2 (twiddles 1 and ∓i) on the four rows a0…a3, with
// sign in X12 and -sign in X13: u0 lands in (X0, X1), u1 in (X2, X3), u2 in
// (X14, X15) and u3 in (X4, X5). It clobbers X6 and X7.
#define RADIX4(a0r, a1r, a2r, a3r, a0i, a1i, a2i, a3i) \
	MOVUPD a0r, X0; \
	MOVUPD a1r, X14; \
	MOVAPD X0, X2; \
	ADDPD  X14, X0; \
	SUBPD  X14, X2; \
	MOVUPD a0i, X1; \
	MOVUPD a1i, X14; \
	MOVAPD X1, X3; \
	ADDPD  X14, X1; \
	SUBPD  X14, X3; \
	MOVUPD a2r, X4; \
	MOVUPD a3r, X14; \
	MOVAPD X4, X6; \
	ADDPD  X14, X4; \
	SUBPD  X14, X6; \
	MOVUPD a2i, X5; \
	MOVUPD a3i, X14; \
	MOVAPD X5, X7; \
	ADDPD  X14, X5; \
	SUBPD  X14, X7; \
	MULPD  X12, X7; \
	MULPD  X13, X6; \
	MOVAPD X0, X14; \
	ADDPD  X4, X0; \
	SUBPD  X4, X14; \
	MOVAPD X1, X15; \
	ADDPD  X5, X1; \
	SUBPD  X5, X15; \
	MOVAPD X2, X4; \
	ADDPD  X7, X2; \
	SUBPD  X7, X4; \
	MOVAPD X3, X5; \
	ADDPD  X6, X3; \
	SUBPD  X6, X5

// BCAST loads the float64 at addr into both lanes of x.
#define BCAST(addr, x) \
	MOVSD    addr, x; \
	UNPCKLPD x, x

// func head8x2(re, im *float64, stride, n, pairs int, sign, w1r, w1i, w3r, w3i float64)
//
// transformSplitMany's fused radix-8 head (stages 1+2+3) over n/8 groups of
// eight rows. Rows 0…3 are written back after stages 1+2 and read again for
// stage 3, which holds u4…u7 in registers.
TEXT ·head8x2(SB), NOSPLIT, $0-80
	MOVQ  re+0(FP), R12
	MOVQ  im+8(FP), R13
	MOVQ  stride+16(FP), DX
	MOVQ  n+24(FP), AX
	SHLQ  $3, DX              // one row, in bytes
	LEAQ  (DX)(DX*2), BX      // three rows
	LEAQ  (DX)(DX*4), R10     // five rows
	LEAQ  (BX)(DX*4), R11     // seven rows
	MOVQ  DX, R8
	SHLQ  $3, R8              // eight rows: one group
	SHRQ  $3, AX              // groups
	BCAST(sign+40(FP), X12)
	XORPD X13, X13
	SUBPD X12, X13            // -sign
	BCAST(w1r+48(FP), X8)
	BCAST(w1i+56(FP), X9)
	BCAST(w3r+64(FP), X10)
	BCAST(w3i+72(FP), X11)

group:
	MOVQ R12, SI
	MOVQ R13, DI
	MOVQ pairs+32(FP), CX

pair:
	// Stages 1+2 on rows 0…3, written back as u0…u3.
	RADIX4((SI), (SI)(DX*1), (SI)(DX*2), (SI)(BX*1), (DI), (DI)(DX*1), (DI)(DX*2), (DI)(BX*1))
	MOVUPD X0, (SI)
	MOVUPD X1, (DI)
	MOVUPD X2, (SI)(DX*1)
	MOVUPD X3, (DI)(DX*1)
	MOVUPD X14, (SI)(DX*2)
	MOVUPD X15, (DI)(DX*2)
	MOVUPD X4, (SI)(BX*1)
	MOVUPD X5, (DI)(BX*1)

	// Stages 1+2 on rows 4…7: u4…u7 in registers.
	RADIX4((SI)(DX*4), (SI)(R10*1), (SI)(BX*2), (SI)(R11*1), (DI)(DX*4), (DI)(R10*1), (DI)(BX*2), (DI)(R11*1))

	// Stage 3: (u0,u4)·1, (u1,u5)·w₈, (u2,u6)·∓i, (u3,u7)·w₈³.
	BFLY((SI), (SI)(DX*4), X0, X6, X7)
	BFLY((DI), (DI)(DX*4), X1, X6, X7)
	CMUL(X2, X3, X8, X9, X0, X1)
	BFLY((SI)(DX*1), (SI)(R10*1), X0, X6, X7)
	BFLY((DI)(DX*1), (DI)(R10*1), X2, X6, X7)
	MULPD X12, X15            // sign·u6i
	MULPD X13, X14            // -sign·u6r
	BFLY((SI)(DX*2), (SI)(BX*2), X15, X6, X7)
	BFLY((DI)(DX*2), (DI)(BX*2), X14, X6, X7)
	CMUL(X4, X5, X10, X11, X0, X1)
	BFLY((SI)(BX*1), (SI)(R11*1), X0, X6, X7)
	BFLY((DI)(BX*1), (DI)(R11*1), X4, X6, X7)

	ADDQ $16, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  pair
	ADDQ R8, R12
	ADDQ R8, R13
	DECQ AX
	JNZ  group
	RET

// func pair4x2(re, im *float64, stride, groups, h, pairs int, war, wai, wbr, wbi *float64)
//
// One fused pair of stages (widths 2h and 4h) over groups blocks of 4h rows:
// for row k < h of a block, the twiddles wa[k], wb[k] and wb[k+h] are
// broadcast once and swept over every column pair.
TEXT ·pair4x2(SB), NOSPLIT, $0-80
	MOVQ  re+0(FP), R12       // row start+k
	MOVQ  im+8(FP), R13
	MOVQ  stride+16(FP), R14
	SHLQ  $3, R14             // one row, in bytes
	MOVQ  groups+24(FP), AX
	MOVQ  h+32(FP), R15
	MOVQ  R15, DX
	IMULQ R14, DX             // h rows
	LEAQ  (DX)(DX*2), BX      // 3h rows
	SHLQ  $3, R15             // h twiddles, in bytes

group:
	XORQ R8, R8               // k, in bytes

k:
	MOVQ  war+48(FP), R9
	BCAST((R9)(R8*1), X8)
	MOVQ  wai+56(FP), R9
	BCAST((R9)(R8*1), X9)
	MOVQ  wbr+64(FP), R9
	BCAST((R9)(R8*1), X10)
	ADDQ  R15, R9
	BCAST((R9)(R8*1), X12)
	MOVQ  wbi+72(FP), R9
	BCAST((R9)(R8*1), X11)
	ADDQ  R15, R9
	BCAST((R9)(R8*1), X13)
	MOVQ  R12, SI
	MOVQ  R13, DI
	MOVQ  pairs+40(FP), CX

pair:
	MOVUPD (SI)(DX*1), X0
	MOVUPD (DI)(DX*1), X1
	CMUL(X0, X1, X8, X9, X14, X15) // b1 = q1·w1 in (X14, X0)
	MOVUPD (SI), X2
	MOVAPD X2, X3
	ADDPD  X14, X2            // u0r
	SUBPD  X14, X3            // u1r
	MOVUPD (DI), X4
	MOVAPD X4, X5
	ADDPD  X0, X4             // u0i
	SUBPD  X0, X5             // u1i
	MOVUPD (SI)(BX*1), X0
	MOVUPD (DI)(BX*1), X1
	CMUL(X0, X1, X8, X9, X14, X15) // b3 = q3·w1 in (X14, X0)
	MOVUPD (SI)(DX*2), X6
	MOVAPD X6, X7
	ADDPD  X14, X6            // u2r
	SUBPD  X14, X7            // u3r
	MOVUPD (DI)(DX*2), X1
	MOVAPD X1, X15
	ADDPD  X0, X1             // u2i
	SUBPD  X0, X15            // u3i
	CMUL(X6, X1, X10, X11, X0, X14) // c2 = u2·w2 in (X0, X6)
	MOVAPD X2, X1
	ADDPD  X0, X2
	SUBPD  X0, X1
	MOVUPD X2, (SI)
	MOVUPD X1, (SI)(DX*2)
	MOVAPD X4, X1
	ADDPD  X6, X4
	SUBPD  X6, X1
	MOVUPD X4, (DI)
	MOVUPD X1, (DI)(DX*2)
	CMUL(X7, X15, X12, X13, X0, X14) // c3 = u3·w3 in (X0, X7)
	MOVAPD X3, X1
	ADDPD  X0, X3
	SUBPD  X0, X1
	MOVUPD X3, (SI)(DX*1)
	MOVUPD X1, (SI)(BX*1)
	MOVAPD X5, X1
	ADDPD  X7, X5
	SUBPD  X7, X1
	MOVUPD X5, (DI)(DX*1)
	MOVUPD X1, (DI)(BX*1)

	ADDQ $16, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  pair
	ADDQ R14, R12
	ADDQ R14, R13
	ADDQ $8, R8
	CMPQ R8, R15
	JLT  k
	ADDQ BX, R12              // past the block's other 3h rows
	ADDQ BX, R13
	DECQ AX
	JNZ  group
	RET

// func radix2x2(re, im *float64, stride, half, pairs int, wr, wi *float64)
//
// The trailing unpaired stage, always the last (width n = 2·half): rows k
// and k+half for k < half, one twiddle per k.
TEXT ·radix2x2(SB), NOSPLIT, $0-56
	MOVQ  re+0(FP), R12
	MOVQ  im+8(FP), R13
	MOVQ  stride+16(FP), R14
	SHLQ  $3, R14
	MOVQ  half+24(FP), AX
	MOVQ  AX, DX
	IMULQ R14, DX             // half rows
	MOVQ  wr+40(FP), R10
	MOVQ  wi+48(FP), R11

k:
	BCAST((R10), X8)
	BCAST((R11), X9)
	MOVQ R12, SI
	MOVQ R13, DI
	MOVQ pairs+32(FP), CX

pair:
	MOVUPD (SI)(DX*1), X0
	MOVUPD (DI)(DX*1), X1
	CMUL(X0, X1, X8, X9, X2, X3) // b = hi·w in (X2, X0)
	BFLY((SI), (SI)(DX*1), X2, X4, X5)
	BFLY((DI), (DI)(DX*1), X0, X4, X5)
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ CX
	JNZ  pair
	ADDQ R14, R12
	ADDQ R14, R13
	ADDQ $8, R10
	ADDQ $8, R11
	DECQ AX
	JNZ  k
	RET

// func unpackx2(sRe, sIm, zRe, zIm *float64, stride, h, pairs int, wr, wi *float64)
//
// UnpackSplitMany's rows k = 1 … h-1 (h ≥ 2): spec row k from zf rows k and
// h-k.
TEXT ·unpackx2(SB), NOSPLIT, $0-72
	MOVQ  stride+32(FP), R14
	SHLQ  $3, R14
	MOVQ  h+40(FP), AX
	MOVQ  AX, BX
	DECQ  BX
	IMULQ R14, BX             // h-1 rows
	MOVQ  zRe+16(FP), R8      // zf row k
	MOVQ  zIm+24(FP), R9
	LEAQ  (R8)(BX*1), R10     // zf row h-k
	LEAQ  (R9)(BX*1), R11
	ADDQ  R14, R8
	ADDQ  R14, R9
	MOVQ  sRe+0(FP), R12      // spec row k
	MOVQ  sIm+8(FP), R13
	ADDQ  R14, R12
	ADDQ  R14, R13
	MOVQ  wr+56(FP), SI
	MOVQ  wi+64(FP), DI
	ADDQ  $8, SI
	ADDQ  $8, DI
	MOVQ  pairs+48(FP), DX
	SHLQ  $4, DX              // the span, in bytes
	DECQ  AX                  // h-1 rows

row:
	BCAST((SI), X8)
	BCAST((DI), X9)
	XORQ CX, CX

pair:
	MOVUPD (R8)(CX*1), X0     // akr
	MOVUPD (R9)(CX*1), X1     // aki
	MOVUPD (R10)(CX*1), X2    // arr
	MOVUPD (R11)(CX*1), X3    // ari
	MOVAPD X0, X4
	ADDPD  X2, X4             // feRe = akr + arr
	MOVAPD X1, X5
	SUBPD  X3, X5             // feIm = aki - ari
	ADDPD  X3, X1             // foRe = aki + ari
	SUBPD  X0, X2             // foIm = arr - akr
	MOVAPD X1, X6
	MULPD  X8, X6
	ADDPD  X6, X4             // feRe + wr*foRe
	MOVAPD X2, X7
	MULPD  X9, X7
	SUBPD  X7, X4             // … - wi*foIm
	MULPD  X8, X2
	ADDPD  X2, X5             // feIm + wr*foIm
	MULPD  X9, X1
	ADDPD  X1, X5             // … + wi*foRe
	MOVUPD X4, (R12)(CX*1)
	MOVUPD X5, (R13)(CX*1)
	ADDQ   $16, CX
	CMPQ   CX, DX
	JLT    pair
	ADDQ R14, R8
	ADDQ R14, R9
	SUBQ R14, R10
	SUBQ R14, R11
	ADDQ R14, R12
	ADDQ R14, R13
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ AX
	JNZ  row
	RET

// func preInversex2(zRe, zIm, sRe, sIm *float64, stride, h, pairs int, wr, wi *float64, perm *int32)
//
// PreInverseSplitManyRev's rows k = 0 … h-1: z row perm[k] from spec rows k
// and h-k.
TEXT ·preInversex2(SB), NOSPLIT, $0-80
	MOVQ  stride+32(FP), R14
	SHLQ  $3, R14
	MOVQ  h+40(FP), AX
	MOVQ  AX, BX
	IMULQ R14, BX             // h rows
	MOVQ  sRe+16(FP), R8      // spec row k
	MOVQ  sIm+24(FP), R9
	LEAQ  (R8)(BX*1), R10     // spec row h-k
	LEAQ  (R9)(BX*1), R11
	MOVQ  wr+56(FP), SI
	MOVQ  wi+64(FP), DI
	MOVQ  perm+72(FP), R15
	MOVQ  pairs+48(FP), DX
	SHLQ  $4, DX              // the span, in bytes

row:
	BCAST((SI), X8)
	BCAST((DI), X9)
	MOVLQSX (R15), BX
	IMULQ   R14, BX           // z row perm[k]
	MOVQ    zRe+0(FP), R12
	MOVQ    zIm+8(FP), R13
	ADDQ    BX, R12
	ADDQ    BX, R13
	XORQ    CX, CX

pair:
	MOVUPD (R8)(CX*1), X0     // akr
	MOVUPD (R9)(CX*1), X1     // aki
	MOVUPD (R10)(CX*1), X2    // arr
	MOVUPD (R11)(CX*1), X3    // ari
	MOVAPD X0, X4
	ADDPD  X2, X4             // xeRe = akr + arr
	MOVAPD X1, X5
	SUBPD  X3, X5             // xeIm = aki - ari
	SUBPD  X2, X0             // dRe = akr - arr
	ADDPD  X3, X1             // dIm = aki + ari
	CMUL(X0, X1, X8, X9, X6, X7) // xo = d·wi in (X6, X0)
	SUBPD  X0, X4             // xeRe - xoIm
	ADDPD  X6, X5             // xeIm + xoRe
	MOVUPD X4, (R12)(CX*1)
	MOVUPD X5, (R13)(CX*1)
	ADDQ   $16, CX
	CMPQ   CX, DX
	JLT    pair
	ADDQ R14, R8
	ADDQ R14, R9
	SUBQ R14, R10
	SUBQ R14, R11
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ $4, R15
	DECQ AX
	JNZ  row
	RET
