// Package circulant implements the paper's primary contribution: circulant
// and block-circulant weight matrices whose matrix–vector products are
// computed by the "FFT → component-wise multiplication → IFFT" procedure
// (circular convolution theorem, Fig. 2), reducing an O(n²) product to
// O(n log n) and weight storage from O(n²) to O(n).
//
// A circulant matrix C ∈ R^{n×n} is defined by its first column
// w = (w₁ … wₙ): C[a][b] = w[(a−b) mod n]. Then
//
//	C·x  = IFFT(FFT(w) ∘ FFT(x))            (circular convolution)
//	Cᵀ·x = IFFT(conj(FFT(w)) ∘ FFT(x))      (circular correlation)
//
// The block-circulant generalisation W = [C_ij] (k×l grid of b×b circulant
// blocks) covers non-square matrices and trades compression ratio against
// accuracy via the block size b (paper §II, §IV-A). Spectra FFT(w_ij) are
// cached so inference never re-transforms weights — the paper's
// "store FFT(wᵢ) instead of W" storage scheme.
package circulant

import (
	"repro/internal/fft"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Circulant is a single n×n circulant matrix defined by its first column:
// a 1×1 BlockCirculant with block size n, so its products run the one
// spectral engine.
type Circulant struct {
	m    *BlockCirculant
	spec []complex128 // FFT(w), for Spectrum
}

// NewCirculant builds a circulant matrix from its defining vector (the first
// column). The vector must be nonempty; it is copied.
func NewCirculant(w []float64) *Circulant {
	if len(w) == 0 {
		panic("circulant: empty defining vector")
	}
	m := MustNewBlockCirculant(len(w), len(w), len(w))
	copy(m.Base.Data, w)
	m.Refresh()
	return &Circulant{m: m, spec: fft.FFTReal(w)}
}

// Size returns n.
func (c *Circulant) Size() int { return c.m.block }

// Base returns a copy of the defining vector.
func (c *Circulant) Base() []float64 { return append([]float64(nil), c.m.Base.Data...) }

// Spectrum returns the cached full FFT of the defining vector (not a copy;
// callers must not modify it).
func (c *Circulant) Spectrum() []complex128 { return c.spec }

// MulVec returns C·x via FFT → ∘ → IFFT.
func (c *Circulant) MulVec(x []float64) []float64 { return c.m.MulVec(x) }

// TransMulVec returns Cᵀ·x via the correlation form of the procedure.
func (c *Circulant) TransMulVec(x []float64) []float64 { return c.m.TransMulVec(x) }

// MulVecDirect returns C·x by the O(n²) definition; the baseline against
// which the FFT path is validated and benchmarked (Fig. 2 experiment).
func (c *Circulant) MulVecDirect(x []float64) []float64 {
	n, w := c.m.block, c.m.Base.Data
	out := make([]float64, n)
	for a := 0; a < n; a++ {
		var s float64
		for b := 0; b < n; b++ {
			s += w[((a-b)%n+n)%n] * x[b]
		}
		out[a] = s
	}
	return out
}

// Dense expands the circulant matrix to an explicit n×n tensor.
func (c *Circulant) Dense() *tensor.Tensor { return c.m.Dense() }

// MulVecOps returns the analytical cost of one FFT-based MulVec/TransMulVec.
func (c *Circulant) MulVecOps() ops.Counts { return ops.CirculantMatVec(c.m.block) }
