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
// Derivation (single b×b block; verified against finite differences in the
// tests):
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
