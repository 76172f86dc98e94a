package fft

// This file implements the "FFT → component-wise multiplication → IFFT"
// procedure of Fig. 2 of the paper in its circular-convolution form — the
// exact primitive behind the block-circulant matrix–vector products of
// Algorithms 1 and 2 (the correlation form conjugates FFT(w); see
// circulant.Circulant.TransMulVec).

// CircularConvolve returns the length-n circular convolution
// y[a] = Σ_b w[(a−b) mod n]·x[b], computed as IFFT(FFT(w) ∘ FFT(x)).
// Both inputs must have the same nonzero length.
func CircularConvolve(w, x []float64) []float64 {
	if len(w) != len(x) || len(w) == 0 {
		panic("fft: convolution operands must share a nonzero length")
	}
	wf := FFTReal(w)
	xf := FFTReal(x)
	for i := range wf {
		wf[i] *= xf[i]
	}
	y := IFFT(wf)
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = real(v)
	}
	return out
}
