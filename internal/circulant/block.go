package circulant

import (
	"fmt"
	"math/cmplx"
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
// Every product of a power-of-two block size ≥ 2 — MulVec, TransMulVec and
// the batch entry points, at every batch size — runs the one split
// half-spectrum engine of batch.go, so a vector's result does not depend on
// what it was batched with. Other block sizes run the generic complex128
// body below. Scratch is caller-owned (BatchWorkspace) or pooled per call: a
// BlockCirculant has no mutable state once Refresh returns, which is why
// any number of goroutines may multiply through one matrix and why
// model.Replicate may share one between serving replicas.
type BlockCirculant struct {
	rows, cols int // logical (unpadded) dimensions
	block      int
	k, l       int

	// Base holds the defining vectors, shape [k][l][block]; Base[i][j] is
	// the first column of block C_ij.
	Base *tensor.Tensor

	// rplan is the real-input transform plan for the block size, resolved
	// once at construction so no product goes back through the plan cache.
	// It is non-nil exactly when the block size is a power of two ≥ 2, and
	// selects the engine; nil selects the generic body.
	rplan *fft.RealPlan

	// wspec holds the cached spectra the engine streams, in split
	// (structure-of-arrays) half form, k·l·(block/2+1) bins per plane, in the
	// order the bin product consumes them: bin t of block (i, j) at
	// t·k·l + j·k + i. The transpose product (inference) reads one contiguous
	// k-run per (bin, output block), the plain product the same table at
	// stride k. Every entry carries the factor 1/(2·block) that fft's Many
	// kernels leave out (see Refresh). It is derived once per Refresh — plan
	// time, not product time — so the hot loops never touch interleaved
	// complex128 weight data. Populated only when rplan is non-nil.
	wspec fft.SplitSlice

	// spec holds the full complex spectra, k·l·block laid out like Base,
	// for the generic body. Populated only when rplan is nil: a matrix keeps
	// one spectrum copy, the one its product reads.
	spec []complex128
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
	if fft.IsPow2(block) && block >= 2 {
		m.rplan = fft.RealPlanFor(block)
		m.wspec = fft.NewSplit(m.k * m.l * m.rplan.SpecLen())
	} else {
		m.spec = make([]complex128, m.k*m.l*block)
	}
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

// blockSpec returns the cached full spectrum of block (i,j) as a shared
// slice. Valid only when rplan is nil.
func (m *BlockCirculant) blockSpec(i, j int) []complex128 {
	off := (i*m.l + j) * m.block
	return m.spec[off : off+m.block]
}

// Refresh recomputes the cached block spectra from Base: the split half
// form the engine streams, or the full complex form the generic body reads.
// Call after any in-place parameter update (e.g. an optimiser step); it is
// the only method that writes the matrix, so it must not run concurrently
// with a product.
//
// The engine's table entries are the spectrum values times 1/(2·block): the
// product of the factors fft's Many kernels omit (2 from the unpack, 2 from
// the pre-inverse, block/2 from the inverse). It is a power of two, so the
// multiplication is exact and every product keeps the bits it would have
// had with the factors applied inside the transforms — unless a spectrum
// value lies within a factor 2·block of the subnormal range (below ≈ 1e-305),
// where the scaled entry loses low bits; no trained or initialised network
// holds such weights.
func (m *BlockCirculant) Refresh() {
	kl := m.k * m.l
	scale := 1 / float64(2*m.block)
	for i := 0; i < m.k; i++ {
		for j := 0; j < m.l; j++ {
			full := fft.FFTReal(m.baseVec(i, j))
			if m.rplan == nil {
				copy(m.blockSpec(i, j), full)
				continue
			}
			off := j*m.k + i
			for t := 0; t <= m.block/2; t++ {
				m.wspec.Re[t*kl+off] = scale * real(full[t])
				m.wspec.Im[t*kl+off] = scale * imag(full[t])
			}
		}
	}
}

// padBlocks zero-pads v to nblk·b and returns the per-block FFTs.
func padBlocks(v []float64, nblk, b int) [][]complex128 {
	out := make([][]complex128, nblk)
	buf := make([]float64, b)
	for j := 0; j < nblk; j++ {
		for t := 0; t < b; t++ {
			idx := j*b + t
			if idx < len(v) {
				buf[t] = v[idx]
			} else {
				buf[t] = 0
			}
		}
		out[j] = fft.FFTReal(buf)
	}
	return out
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

// mulGeneric is the product for block sizes the engine does not plan (not a
// power of two, or 1): W·x, or Wᵀ·x in the correlation form (conjugated
// weight spectra) when trans is set, through any-size complex128 transforms
// (Bluestein off powers of two). It allocates its scratch per call.
func (m *BlockCirculant) mulGeneric(dst, x []float64, trans bool) {
	b := m.block
	inBlks, outBlks := m.l, m.k
	if trans {
		inBlks, outBlks = m.k, m.l
	}
	xf := padBlocks(x, inBlks, b)
	acc := make([]complex128, b)
	for o := 0; o < outBlks; o++ {
		for t := range acc {
			acc[t] = 0
		}
		for i := 0; i < inBlks; i++ {
			xi := xf[i]
			if trans {
				s := m.blockSpec(i, o)
				for t := 0; t < b; t++ {
					acc[t] += cmplx.Conj(s[t]) * xi[t]
				}
			} else {
				s := m.blockSpec(o, i)
				for t := 0; t < b; t++ {
					acc[t] += s[t] * xi[t]
				}
			}
		}
		y := fft.IFFT(acc)
		hi := min((o+1)*b, len(dst))
		for t := o * b; t < hi; t++ {
			dst[t] = real(y[t-o*b])
		}
	}
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
