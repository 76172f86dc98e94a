// Package fft implements the Fast Fourier Transform kernels that power the
// block-circulant inference and training algorithms of the paper
// "FFT-Based Deep Learning Deployment in Embedded Systems" (DATE 2018).
//
// The package provides:
//
//   - plan-based iterative radix-2 Cooley–Tukey transforms with cached
//     twiddle factors and bit-reversal permutations (Fig. 1 of the paper);
//   - a naive O(n²) DFT used as a correctness reference;
//   - Bluestein's chirp-z algorithm for arbitrary (non power-of-two) sizes;
//   - real-input forward/inverse transforms exploiting conjugate symmetry,
//     which halve the spectral storage of network weights;
//   - one family of split-complex (planar) kernels: the bin-major
//     many-transform kernels the block-circulant engine runs, of which
//     RealPlan's single-vector ForwardSplit/InverseSplit are the count-1
//     case;
//   - 2-D transforms and circular convolution, the primitive behind the
//     paper's "FFT → component-wise multiplication → IFFT" procedure
//     (Fig. 2);
//   - a number-theoretic transform over the prime 2⁶⁴ − 2³² + 1 (ntt.go),
//     the exact integer counterpart the fixed-point build runs the same
//     procedure on.
//
// All transforms use the engineering sign convention: the forward transform
// is X[k] = Σ_j x[j]·e^{-2πi·jk/n} and the inverse includes the 1/n factor.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// Plan holds the precomputed state (twiddle factors and bit-reversal
// permutation) for transforms of one fixed power-of-two size. A Plan is
// immutable after creation and safe for concurrent use.
type Plan struct {
	n     int
	logn  uint
	perm  []int32      // bit-reversal permutation
	tw    []complex128 // tw[k] = e^{-2πi·k/n}, k ∈ [0, n/2)
	twInv []complex128 // conj(tw), so the butterfly loop never branches

	// Split (SoA) twiddle tables for the planar butterflies (splitmany.go):
	// stageTw[s] holds stage s's factors (butterfly width 4·2^s)
	// contiguously per plane, so the split inner loop reads its twiddles
	// at unit stride instead of the strided tw[k·step] gather.
	stageTw, stageTwInv []SplitSlice
}

// NewPlan creates a transform plan for size n, which must be a power of two
// and at least 1.
func NewPlan(n int) (*Plan, error) {
	if n < 1 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: size %d is not a positive power of two", n)
	}
	p := &Plan{n: n}
	for v := 1; v < n; v <<= 1 {
		p.logn++
	}
	p.perm = make([]int32, n)
	for i := 0; i < n; i++ {
		p.perm[i] = int32(reverseBits(uint32(i), p.logn))
	}
	p.tw = make([]complex128, n/2)
	p.twInv = make([]complex128, n/2)
	for k := range p.tw {
		ang := -2 * math.Pi * float64(k) / float64(n)
		p.tw[k] = cmplx.Exp(complex(0, ang))
		p.twInv[k] = cmplx.Conj(p.tw[k])
	}
	// Pin the cardinal twiddle to its exact value: cmplx.Exp leaves
	// e^{-iπ/2} with a ~6e-17 real part, which both costs accuracy and
	// would break bit-identity with the split kernels' multiply-free
	// −i rotation (splitmany.go's fused head stages).
	if n%4 == 0 {
		p.tw[n/4] = complex(0, -1)
		p.twInv[n/4] = complex(0, 1)
	}
	p.splitTables()
	return p, nil
}

// Size returns the transform length of the plan.
func (p *Plan) Size() int { return p.n }

func reverseBits(v uint32, bits uint) uint32 {
	var r uint32
	for i := uint(0); i < bits; i++ {
		r = r<<1 | v&1
		v >>= 1
	}
	return r
}

// Forward computes the DFT of src into dst. dst and src must both have
// length p.Size(); they may alias the same slice for an in-place transform.
//
//repro:noalloc
func (p *Plan) Forward(dst, src []complex128) { p.transform(dst, src, false) }

// Inverse computes the inverse DFT (including the 1/n normalisation) of src
// into dst. dst and src may alias for an in-place transform.
//
//repro:noalloc
func (p *Plan) Inverse(dst, src []complex128) { p.transform(dst, src, true) }

//repro:noalloc
func (p *Plan) transform(dst, src []complex128, inverse bool) {
	n := p.n
	if len(dst) != n || len(src) != n {
		panic(fmt.Sprintf("fft: plan size %d, dst %d, src %d", n, len(dst), len(src)))
	}
	// Bit-reversal reorder. When dst aliases src, swap pairs in place.
	if &dst[0] == &src[0] {
		for i, j := range p.perm {
			if i < int(j) {
				dst[i], dst[j] = dst[j], dst[i]
			}
		}
	} else {
		for i, j := range p.perm {
			dst[i] = src[j]
		}
	}
	// Iterative decimation-in-time butterflies (the structure of Fig. 1).
	// The direction is folded into the twiddle table choice so the
	// innermost loop carries no branch.
	tw := p.tw
	if inverse {
		tw = p.twInv
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := n / size
		for start := 0; start < n; start += size {
			tk := 0
			for k := start; k < start+half; k++ {
				a := dst[k]
				b := dst[k+half] * tw[tk]
				dst[k] = a + b
				dst[k+half] = a - b
				tk += step
			}
		}
	}
	if inverse {
		inv := 1 / float64(n)
		for i := range dst {
			dst[i] = complex(real(dst[i])*inv, imag(dst[i])*inv)
		}
	}
}

// planCache memoises plans by size so hot paths (fixed layer sizes) never
// recompute twiddles.
var planCache sync.Map // int -> *Plan

// PlanFor returns a cached plan for power-of-two size n, creating it on first
// use. It panics if n is not a positive power of two; use NewPlan for
// validated construction.
func PlanFor(n int) *Plan {
	if v, ok := planCache.Load(n); ok {
		return v.(*Plan)
	}
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*Plan)
}

// IsPow2 reports whether n is a positive power of two.
//
//repro:noalloc
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two ≥ n (and ≥ 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// FFT returns the DFT of x for any positive length: power-of-two lengths use
// the radix-2 plan; other lengths fall back to Bluestein's algorithm. The
// input is not modified.
func FFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	if len(x) == 0 {
		return out
	}
	if IsPow2(len(x)) {
		PlanFor(len(x)).Forward(out, x)
		return out
	}
	return bluestein(x, false)
}

// IFFT returns the inverse DFT (with 1/n normalisation) of x for any positive
// length. The input is not modified.
func IFFT(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	if len(x) == 0 {
		return out
	}
	if IsPow2(len(x)) {
		PlanFor(len(x)).Inverse(out, x)
		return out
	}
	return bluestein(x, true)
}

// FFTReal transforms a real-valued sequence, returning the full complex
// spectrum of length len(x).
func FFTReal(x []float64) []complex128 {
	cx := make([]complex128, len(x))
	for i, v := range x {
		cx[i] = complex(v, 0)
	}
	if len(x) == 0 {
		return cx
	}
	if IsPow2(len(x)) {
		PlanFor(len(x)).Forward(cx, cx)
		return cx
	}
	return bluestein(cx, false)
}
