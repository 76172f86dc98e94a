package circulant

import (
	"fmt"
	"math/rand"

	"repro/internal/fft"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// BlockCirculant is an m×n matrix partitioned into a k×l grid of b×b
// circulant blocks (k = ⌈m/b⌉, l = ⌈n/b⌉; the matrix is implicitly
// zero-padded to k·b × l·b as in the paper's footnote on general m, n).
//
// It stores only the k·l defining vectors (k·l·b parameters instead of m·n)
// plus their cached spectra. The Base tensor is exposed so an optimiser can
// update parameters in place; call Refresh afterwards to re-derive spectra.
//
// Every product and gradient — MulVec, TransMulVec, the batch entry points
// and TransMulBatchGradInto, at every batch size and every block size — runs
// the one split half-spectrum engine of batch.go, so a vector's result does
// not depend on what it was batched with. A block size that is not a power
// of two ≥ 2 runs it by pad-and-fold: each block is zero-padded to a
// power-of-two transform length n ≥ 2b−1, where the cyclic product is the
// linear one, and the store folds that back to length b — the same rule as
// the integer build's kernel. Scratch is caller-owned (BatchWorkspace) or
// pooled per call: a BlockCirculant has no mutable state once Refresh
// returns, which is why any number of goroutines may multiply through one
// matrix and why model.Replicate may share one between serving replicas.
type BlockCirculant struct {
	rows, cols int // logical (unpadded) dimensions
	block      int
	k, l       int

	// Base holds the defining vectors, shape [k][l][block]; Base[i][j] is
	// the first column of block C_ij.
	Base *tensor.Tensor

	// n is the transform length: the block size when it is a power of two
	// ≥ 2, otherwise max(2, NextPow2(2b−1)) (pad-and-fold).
	n int

	// rplan is the real-input transform plan for length n, resolved once at
	// construction so no product goes back through the plan cache.
	rplan *fft.RealPlan

	// wspec holds the cached spectra the engine streams, in split
	// (structure-of-arrays) half form, k·l·(n/2+1) bins per plane, in the
	// order the bin product consumes them: bin t of block (i, j) at
	// t·k·l + j·k + i. The transpose product (inference) reads one contiguous
	// k-run per (bin, output block), the plain product the same table at
	// stride k. Every entry carries the factor 1/(2n) that fft's Many
	// kernels leave out (see Refresh). It is derived once per Refresh — plan
	// time, not product time — so the hot loops never touch interleaved
	// complex128 weight data.
	wspec fft.SplitSlice
}

// NewBlockCirculant creates an m×n block-circulant matrix with square block
// size b (all defining vectors zero). b must be positive; m, n must be
// positive.
func NewBlockCirculant(rows, cols, block int) (*BlockCirculant, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("circulant: non-positive matrix dimensions %dx%d", rows, cols)
	}
	if block < 1 {
		return nil, fmt.Errorf("circulant: non-positive block size %d", block)
	}
	m := &BlockCirculant{
		rows:  rows,
		cols:  cols,
		block: block,
		k:     (rows + block - 1) / block,
		l:     (cols + block - 1) / block,
	}
	m.Base = tensor.New(m.k, m.l, block)
	m.n = block
	if !fft.IsPow2(block) || block < 2 {
		m.n = max(2, fft.NextPow2(2*block-1))
	}
	m.rplan = fft.RealPlanFor(m.n)
	m.wspec = fft.NewSplit(m.k * m.l * m.rplan.SpecLen())
	return m, nil
}

// MustNewBlockCirculant is NewBlockCirculant that panics on error (for
// statically-known-good shapes).
func MustNewBlockCirculant(rows, cols, block int) *BlockCirculant {
	m, err := NewBlockCirculant(rows, cols, block)
	if err != nil {
		panic(err)
	}
	return m
}

// Rows returns the logical row count m.
//
//repro:noalloc
func (m *BlockCirculant) Rows() int { return m.rows }

// Cols returns the logical column count n.
//
//repro:noalloc
func (m *BlockCirculant) Cols() int { return m.cols }

// BlockSize returns b.
//
//repro:noalloc
func (m *BlockCirculant) BlockSize() int { return m.block }

// Grid returns the block-grid dimensions (k row blocks, l column blocks).
//
//repro:noalloc
func (m *BlockCirculant) Grid() (k, l int) { return m.k, m.l }

// NumParams returns the number of stored parameters (k·l·b), the numerator of
// the paper's storage-reduction claim.
//
//repro:noalloc
func (m *BlockCirculant) NumParams() int { return m.k * m.l * m.block }

// CompressionRatio returns dense-parameter count divided by stored-parameter
// count: (m·n)/(k·l·b).
func (m *BlockCirculant) CompressionRatio() float64 {
	return float64(m.rows) * float64(m.cols) / float64(m.NumParams())
}

// InitRandom fills the defining vectors with a Glorot-style distribution
// scaled for the dense-equivalent fan-in/fan-out and refreshes spectra.
func (m *BlockCirculant) InitRandom(rng *rand.Rand) *BlockCirculant {
	m.Base.XavierInit(rng, m.rows, m.cols)
	m.Refresh()
	return m
}

// baseVec returns the defining vector of block (i,j) as a shared slice.
func (m *BlockCirculant) baseVec(i, j int) []float64 {
	off := (i*m.l + j) * m.block
	return m.Base.Data[off : off+m.block]
}

// Refresh recomputes the cached block spectra the engine streams from Base,
// each defining vector zero-padded to the transform length n. Call after
// any in-place parameter update (e.g. an optimiser step); it is the only
// method that writes the matrix, so it must not run concurrently with a
// product.
//
// The table entries are the spectrum values times 1/(2n): the product of
// the factors fft's Many kernels omit (2 from the unpack, 2 from the
// pre-inverse, n/2 from the inverse). It is a power of two, so the
// multiplication is exact and every product keeps the bits it would have
// had with the factors applied inside the transforms — unless a spectrum
// value lies within a factor 2n of the subnormal range (below ≈ 1e-305),
// where the scaled entry loses low bits; no trained or initialised network
// holds such weights.
func (m *BlockCirculant) Refresh() {
	kl := m.k * m.l
	scale := 1 / float64(2*m.n)
	padded := make([]float64, m.n)
	for i := 0; i < m.k; i++ {
		for j := 0; j < m.l; j++ {
			copy(padded, m.baseVec(i, j)) // the tail past b stays zero
			full := fft.FFTReal(padded)
			off := j*m.k + i
			for t := 0; t <= m.n/2; t++ {
				m.wspec.Re[t*kl+off] = scale * real(full[t])
				m.wspec.Im[t*kl+off] = scale * imag(full[t])
			}
		}
	}
}

// MulVec returns W·x (x of length Cols, result of length Rows) using
// per-input-block FFTs, spectral-domain accumulation, and one IFFT per output
// block — Algorithm 1 of the paper in its m ≤ n and m > n general form. It
// is MulBatchInto at batch 1 with pooled scratch.
func (m *BlockCirculant) MulVec(x []float64) []float64 {
	return m.mulBatch("MulVec", nil, x, 1, nil, false, nil, false)
}

// TransMulVec returns Wᵀ·x (x of length Rows, result of length Cols): the
// forward bottleneck Wᵀx of the paper's FC layer (Eqn. 3), in correlation
// form. It is TransMulBatchInto at batch 1 with pooled scratch.
func (m *BlockCirculant) TransMulVec(x []float64) []float64 {
	return m.mulBatch("TransMulVec", nil, x, 1, nil, true, nil, false)
}

// Dense expands the block-circulant matrix to an explicit rows×cols tensor
// (padding truncated), used for validation and as the uncompressed baseline.
func (m *BlockCirculant) Dense() *tensor.Tensor {
	d := tensor.New(m.rows, m.cols)
	b := m.block
	for i := 0; i < m.k; i++ {
		for j := 0; j < m.l; j++ {
			w := m.baseVec(i, j)
			for a := 0; a < b; a++ {
				r := i*b + a
				if r >= m.rows {
					break
				}
				for c := 0; c < b; c++ {
					cc := j*b + c
					if cc >= m.cols {
						break
					}
					d.Set(w[((a-c)%b+b)%b], r, cc)
				}
			}
		}
	}
	return d
}

// MulVecOps returns the analytical cost of one FFT-based MulVec (and,
// symmetrically, TransMulVec).
func (m *BlockCirculant) MulVecOps() ops.Counts {
	return ops.BlockCirculantMatVec(m.k, m.l, m.block)
}

// DenseOps returns the cost of the equivalent uncompressed dense product.
func (m *BlockCirculant) DenseOps() ops.Counts {
	return ops.DenseMatVec(m.rows, m.cols)
}
