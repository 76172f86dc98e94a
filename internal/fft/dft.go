package fft

import (
	"math"
	"math/cmplx"
)

// DFTInto computes the discrete Fourier transform of x into dst by the
// defining O(n²) summation. It exists as the correctness oracle for the
// fast transforms and as the "direct" baseline in complexity benchmarks;
// production code should use FFT. dst must have the same length as x and
// must not alias it.
func DFTInto(dst, x []complex128) {
	n := len(x)
	if len(dst) != n {
		panic("fft: DFTInto dst length must match input")
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, ang))
		}
		dst[k] = sum
	}
}
