package circulant

import (
	"fmt"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// Toeplitz implements the structured-matrix baseline of the paper's related
// work (Sindhwani et al. [18]): an n×n Toeplitz matrix T[i][j] = d[i−j]
// defined by 2n−1 diagonal values. It stores ~2× the parameters of a
// same-size circulant matrix (the comparison the paper draws in §II) and
// multiplies in O(n log n) by embedding into a 2n-point circulant, whose
// products run the one spectral engine.
type Toeplitz struct {
	n    int
	diag []float64  // diag[k] = d[k−(n−1)], k ∈ [0, 2n−1): lowest to highest diagonal
	c    *Circulant // the 2n-point circulant embedding
}

// NewToeplitz builds an n×n Toeplitz matrix from its 2n−1 diagonal values,
// ordered from the bottom-left diagonal d[−(n−1)] to the top-right d[n−1].
func NewToeplitz(diag []float64) (*Toeplitz, error) {
	if len(diag) == 0 || len(diag)%2 == 0 {
		return nil, fmt.Errorf("circulant: Toeplitz needs 2n−1 diagonal values, got %d", len(diag))
	}
	t := &Toeplitz{n: (len(diag) + 1) / 2, diag: append([]float64(nil), diag...)}
	t.embed()
	return t, nil
}

// embed builds the circulant embedding from its length-2n defining vector c:
// c[k] = d[k] for k ∈ [0, n) (main and lower diagonals) and c[2n−k] = d[−k]
// for k ∈ [1, n) (upper diagonals).
func (t *Toeplitz) embed() {
	n := t.n
	m := 2 * n
	c := make([]float64, m)
	for k := 0; k < n; k++ {
		c[k] = t.d(k)
	}
	for k := 1; k < n; k++ {
		c[m-k] = t.d(-k)
	}
	t.c = NewCirculant(c)
}

// d returns the diagonal value d[k], k ∈ (−n, n).
func (t *Toeplitz) d(k int) float64 { return t.diag[k+t.n-1] }

// Size returns n.
func (t *Toeplitz) Size() int { return t.n }

// NumParams returns 2n−1, the paper's §II comparison point (a circulant
// matrix needs only n).
func (t *Toeplitz) NumParams() int { return 2*t.n - 1 }

// MulVec returns T·x in O(n log n): the first n entries of C·[x; 0], C the
// 2n-point circulant embedding.
func (t *Toeplitz) MulVec(x []float64) []float64 {
	if len(x) != t.n {
		panic(fmt.Sprintf("circulant: Toeplitz.MulVec length %d, want %d", len(x), t.n))
	}
	xp := make([]float64, 2*t.n)
	copy(xp, x)
	return t.c.MulVec(xp)[:t.n]
}

// MulVecDirect returns T·x by the O(n²) definition (validation baseline).
func (t *Toeplitz) MulVecDirect(x []float64) []float64 {
	out := make([]float64, t.n)
	for i := 0; i < t.n; i++ {
		var s float64
		for j := 0; j < t.n; j++ {
			s += t.d(i-j) * x[j]
		}
		out[i] = s
	}
	return out
}

// Dense expands the Toeplitz matrix to an explicit tensor.
func (t *Toeplitz) Dense() *tensor.Tensor {
	d := tensor.New(t.n, t.n)
	for i := 0; i < t.n; i++ {
		for j := 0; j < t.n; j++ {
			d.Set(t.d(i-j), i, j)
		}
	}
	return d
}

// MulVecOps returns the analytical cost of one embedded-circulant product
// (one 2n FFT, 2n spectral products, one 2n IFFT — the weight spectrum is
// cached).
func (t *Toeplitz) MulVecOps() ops.Counts { return ops.CirculantMatVec(2 * t.n) }
