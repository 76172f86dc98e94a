package circulant

import (
	"fmt"
	"math/cmplx"

	"repro/internal/fft"
	"repro/internal/tensor"
)

// This file implements the spectral-domain gradient computations of the
// paper's Algorithm 2: because ∂aᵢ/∂wᵢ is itself circulant, every gradient
// needed for training collapses to the same FFT → ∘ → IFFT procedure used in
// inference, giving O(n log n) weight updates instead of O(n²).
//
// Derivations (single b×b block; verified against finite differences in the
// tests):
//
//	Forward convolution   y = C·x,  y[a] = Σ_d w[(a−d) mod b]·x[d]:
//	  ∂L/∂w[c] = Σ_a g[a]·x[(a−c) mod b]     = IFFT(FFT(g) ∘ conj(FFT(x)))
//	  ∂L/∂x    = Cᵀ·g                        = IFFT(conj(FFT(w)) ∘ FFT(g))
//
//	Forward correlation   y = Cᵀ·x, y[d] = Σ_a w[(a−d) mod b]·x[a]:
//	  ∂L/∂w[c] = Σ_d g[d]·x[(d+c) mod b]     = IFFT(conj(FFT(g)) ∘ FFT(x))
//	  ∂L/∂x    = C·g                         = IFFT(FFT(w) ∘ FFT(g))
//
// where g = ∂L/∂y and all transforms are length-b.

// TransMulVecGrad computes the gradients for the FC-layer forward pass
// y = Wᵀ·x: given the upstream gradient g = ∂L/∂y (length Cols) and the
// forward input x (length Rows), it returns
//
//	gradBase — ∂L/∂Base with the same [k][l][b] shape as Base, and
//	gradX    — ∂L/∂x = W·g (length Rows).
func (m *BlockCirculant) TransMulVecGrad(x, g []float64) (gradBase *tensor.Tensor, gradX []float64) {
	if len(x) != m.rows {
		panic(fmt.Sprintf("circulant: TransMulVecGrad input length %d, want %d", len(x), m.rows))
	}
	if len(g) != m.cols {
		panic(fmt.Sprintf("circulant: TransMulVecGrad gradient length %d, want %d", len(g), m.cols))
	}
	b := m.block
	xf := padBlocks(x, m.k, b)
	gf := padBlocks(g, m.l, b)

	gradBase = tensor.New(m.k, m.l, b)
	// ∂L/∂w_ij = IFFT(conj(G_j) ∘ X_i)
	prod := make([]complex128, b)
	for i := 0; i < m.k; i++ {
		for j := 0; j < m.l; j++ {
			for t := 0; t < b; t++ {
				prod[t] = cmplx.Conj(gf[j][t]) * xf[i][t]
			}
			gw := fft.IFFT(prod)
			dst := gradBase.Data[(i*m.l+j)*b : (i*m.l+j)*b+b]
			for t := 0; t < b; t++ {
				dst[t] = real(gw[t])
			}
		}
	}

	// ∂L/∂x_i = IFFT(Σ_j S_ij ∘ G_j): the product W·g itself.
	return gradBase, m.MulVec(g)
}

// MulVecGrad computes the gradients for the forward pass y = W·x: given
// g = ∂L/∂y (length Rows) and the forward input x (length Cols), it returns
// ∂L/∂Base and ∂L/∂x = Wᵀ·g (length Cols).
func (m *BlockCirculant) MulVecGrad(x, g []float64) (gradBase *tensor.Tensor, gradX []float64) {
	if len(x) != m.cols {
		panic(fmt.Sprintf("circulant: MulVecGrad input length %d, want %d", len(x), m.cols))
	}
	if len(g) != m.rows {
		panic(fmt.Sprintf("circulant: MulVecGrad gradient length %d, want %d", len(g), m.rows))
	}
	b := m.block
	xf := padBlocks(x, m.l, b)
	gf := padBlocks(g, m.k, b)

	gradBase = tensor.New(m.k, m.l, b)
	// ∂L/∂w_ij = IFFT(G_i ∘ conj(X_j))
	prod := make([]complex128, b)
	for i := 0; i < m.k; i++ {
		for j := 0; j < m.l; j++ {
			for t := 0; t < b; t++ {
				prod[t] = gf[i][t] * cmplx.Conj(xf[j][t])
			}
			gw := fft.IFFT(prod)
			dst := gradBase.Data[(i*m.l+j)*b : (i*m.l+j)*b+b]
			for t := 0; t < b; t++ {
				dst[t] = real(gw[t])
			}
		}
	}

	// ∂L/∂x_j = IFFT(Σ_i conj(S_ij) ∘ G_i): the product Wᵀ·g itself.
	return gradBase, m.TransMulVec(g)
}
