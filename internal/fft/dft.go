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
func DFTInto(dst, x []complex128) { dftInto(dst, x, false) }

// IDFTInto computes the O(n²) reference inverse DFT (with 1/n
// normalisation) of x into dst, which must have the same length and must
// not alias x.
func IDFTInto(dst, x []complex128) { dftInto(dst, x, true) }

func dftInto(dst, x []complex128, inverse bool) {
	n := len(x)
	if len(dst) != n {
		panic("fft: DFTInto dst length must match input")
	}
	if n == 0 {
		return
	}
	sign := -2.0
	if inverse {
		sign = 2.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := sign * math.Pi * float64(k) * float64(j) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, ang))
		}
		dst[k] = sum
	}
	if inverse {
		inv := 1 / float64(n)
		for k := range dst {
			dst[k] = complex(real(dst[k])*inv, imag(dst[k])*inv)
		}
	}
}
