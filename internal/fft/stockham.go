package fft

import (
	"math"
	"math/cmplx"
)

// StockhamInto computes the DFT of a power-of-two-length sequence with the
// Stockham autosort algorithm: instead of a bit-reversal permutation pass it
// ping-pongs between two buffers (dst and scratch), keeping every butterfly
// stage's reads and writes unit-stride. That access pattern is why Stockham
// is the structure of choice for hardware and SIMD FFT pipelines; it is
// provided here as the ablation counterpart to the bit-reversal Cooley–Tukey
// Plan (Fig. 1) — same O(n log n) arithmetic, different memory behaviour.
//
// dst, x and scratch must all have the same power-of-two length; dst and
// scratch must not alias x or each other. x is not modified.
func StockhamInto(dst, x, scratch []complex128) { stockhamInto(dst, x, scratch, false) }

// StockhamInverseInto computes the inverse DFT (with 1/n normalisation) of
// x into dst using scratch as the second ping-pong buffer. Aliasing rules
// match StockhamInto.
func StockhamInverseInto(dst, x, scratch []complex128) { stockhamInto(dst, x, scratch, true) }

func stockhamInto(dst, x, scratch []complex128, inverse bool) {
	n := len(x)
	if n == 0 {
		return
	}
	if !IsPow2(n) {
		panic("fft: Stockham requires a power-of-two length")
	}
	if len(dst) != n || len(scratch) != n {
		panic("fft: Stockham buffers must match the input length")
	}
	// The autosort runs log2(n) stages, swapping buffers after each, so the
	// result lands in the initial read buffer after an even number of
	// stages and in the initial write buffer after an odd number. Seed the
	// ping-pong so the final stage's writes land in dst either way.
	stages := 0
	for v := 1; v < n; v <<= 1 {
		stages++
	}
	a, b := dst, scratch
	if stages%2 != 0 {
		a, b = scratch, dst
	}
	copy(a, x)
	sign := -2.0
	if inverse {
		sign = 2.0
	}
	// Decimation-in-frequency autosort: the transform length nn halves each
	// stage while the inter-transform stride s doubles; the output
	// reordering is folded into the 2p/2p+1 write pattern, so both reads
	// and writes stay unit-stride in q.
	for nn, s := n, 1; nn > 1; nn, s = nn/2, s*2 {
		m := nn / 2
		theta := sign * math.Pi / float64(nn)
		for p := 0; p < m; p++ {
			w := cmplx.Exp(complex(0, theta*float64(p)))
			for q := 0; q < s; q++ {
				u := a[q+s*p]
				v := a[q+s*(p+m)]
				b[q+s*2*p] = u + v
				b[q+s*(2*p+1)] = (u - v) * w
			}
		}
		a, b = b, a
	}
	if inverse {
		inv := 1 / float64(n)
		for i := range a {
			a[i] = complex(real(a[i])*inv, imag(a[i])*inv)
		}
	}
}
