package fft

import (
	"math"
	"math/cmplx"
)

// RFFT computes the DFT of a real-valued sequence and returns only the
// non-redundant half spectrum X[0..n/2] (length n/2+1); the remaining bins
// satisfy X[n-k] = conj(X[k]).
//
// The paper stores FFT(wᵢ) instead of the dense weight matrix (§IV-A); for
// real-valued weight vectors this half-spectrum representation is what makes
// that storage O(n) real numbers rather than O(n) complex ones.
//
// For even n the transform packs the real sequence into an n/2-point complex
// transform (one butterfly stage cheaper than a full complex FFT); odd n falls
// back to a full complex transform.
func RFFT(x []float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	if n == 1 {
		return []complex128{complex(x[0], 0)}
	}
	if n%2 != 0 {
		full := FFTReal(x)
		return append([]complex128(nil), full[:n/2+1]...)
	}
	h := n / 2
	z := make([]complex128, h)
	for j := 0; j < h; j++ {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	var zf []complex128
	if IsPow2(h) {
		zf = make([]complex128, h)
		PlanFor(h).Forward(zf, z)
	} else {
		zf = bluestein(z, false)
	}
	out := make([]complex128, h+1)
	for k := 0; k <= h; k++ {
		zk := zf[k%h]
		zr := cmplx.Conj(zf[(h-k)%h])
		fe := (zk + zr) / 2
		fo := (zk - zr) / complex(0, 2)
		ang := -2 * math.Pi * float64(k) / float64(n)
		out[k] = fe + cmplx.Exp(complex(0, ang))*fo
	}
	return out
}

// IRFFT inverts RFFT: given the half spectrum of length n/2+1 it returns the
// length-n real sequence. n must be even and at least 2.
func IRFFT(spec []complex128, n int) []float64 {
	if n < 2 || n%2 != 0 {
		panic("fft: IRFFT requires even n >= 2")
	}
	h := n / 2
	if len(spec) != h+1 {
		panic("fft: IRFFT spectrum length must be n/2+1")
	}
	z := make([]complex128, h)
	for k := 0; k < h; k++ {
		xe := (spec[k] + cmplx.Conj(spec[h-k])) / 2
		ang := 2 * math.Pi * float64(k) / float64(n)
		xo := (spec[k] - cmplx.Conj(spec[h-k])) / 2 * cmplx.Exp(complex(0, ang))
		z[k] = xe + complex(0, 1)*xo
	}
	var zt []complex128
	if IsPow2(h) {
		zt = make([]complex128, h)
		PlanFor(h).Inverse(zt, z)
	} else {
		zt = bluestein(z, true)
	}
	out := make([]float64, n)
	for j := 0; j < h; j++ {
		out[2*j] = real(zt[j])
		out[2*j+1] = imag(zt[j])
	}
	return out
}
