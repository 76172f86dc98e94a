package fft

import (
	"fmt"
	"math"
	"sync"
)

// RealPlan is the planned form of RFFT/IRFFT: the precomputed state for
// half-spectrum transforms of real sequences of one fixed power-of-two
// length n ≥ 2. A real length-n sequence is packed into an n/2-point complex
// sequence, transformed with the half-size Plan, and untangled with a
// twiddle pass — half the butterfly work of a full complex transform, which
// is exactly the conjugate-symmetry saving the paper's "store FFT(wᵢ)"
// representation relies on (§IV-A).
//
// Like Plan, a RealPlan is immutable after creation and safe for concurrent
// use; per-call scratch is owned by the caller.
//
// The transform runs in phases (pack → half-size ForwardSplitManyRev →
// UnpackSplitMany, and PreInverseSplitManyRev → half-size
// InverseSplitManyRev → interleave) so the circulant engine can run each
// phase as one bin-major pass over many packed vectors (splitmany.go).
// ForwardSplit/InverseSplit are the same phases at count 1.
type RealPlan struct {
	n    int
	half int
	cplx *Plan // half-size complex plan

	// Untangling twiddles in split form: w = e^{-2πi·k/n}, k ∈ [0, n/2],
	// and wi = e^{+2πi·k/n}, k ∈ [0, n/2).
	wRe, wIm   []float64
	wiRe, wiIm []float64
}

// NewRealPlan creates a half-spectrum transform plan for real sequences of
// length n, which must be a power of two and at least 2.
func NewRealPlan(n int) (*RealPlan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("fft: real plan size %d is not a power of two ≥ 2", n)
	}
	rp := &RealPlan{n: n, half: n / 2}
	rp.cplx, _ = NewPlan(rp.half)
	rp.wRe, rp.wIm = make([]float64, rp.half+1), make([]float64, rp.half+1)
	rp.wiRe, rp.wiIm = make([]float64, rp.half), make([]float64, rp.half)
	for k := range rp.wRe {
		ang := 2 * math.Pi * float64(k) / float64(n)
		rp.wIm[k], rp.wRe[k] = math.Sincos(-ang)
		if k < rp.half {
			rp.wiIm[k], rp.wiRe[k] = math.Sincos(ang)
		}
	}
	return rp, nil
}

// Size returns the real sequence length n.
func (rp *RealPlan) Size() int { return rp.n }

// SpecLen returns the half-spectrum length n/2+1.
func (rp *RealPlan) SpecLen() int { return rp.half + 1 }

// Complex returns the half-size complex plan that executes the middle phase,
// for callers pushing many packed vectors through one ForwardSplitManyRev or
// InverseSplitManyRev call.
//
//repro:noalloc
func (rp *RealPlan) Complex() *Plan { return rp.cplx }

// ForwardSplit computes the half spectrum (length n/2+1) of the real
// sequence x into spec, using z (length n/2) as scratch. x may be shorter
// than n; missing entries are treated as zero (the block-circulant layers
// zero-pad their tail blocks). It runs the Many kernels at count 1 and
// applies the 0.5 they leave out, an exact factor.
//
//repro:noalloc
func (rp *RealPlan) ForwardSplit(spec SplitSlice, x []float64, z SplitSlice) {
	if spec.Len() != rp.half+1 || z.Len() != rp.half || len(x) > rp.n {
		panic(fmt.Sprintf("fft: RealPlan(%d).ForwardSplit spec %d, x %d, z %d", rp.n, spec.Len(), len(x), z.Len()))
	}
	// Pack z[j] = x[2j] + i·x[2j+1] straight into bit-reversed rows.
	zr, zi := z.Re, z.Im
	for j, row := range rp.cplx.perm {
		var re, im float64
		if 2*j+1 < len(x) {
			re, im = x[2*j], x[2*j+1]
		} else if 2*j < len(x) {
			re = x[2*j]
		}
		zr[row], zi[row] = re, im
	}
	rp.cplx.ForwardSplitManyRev(z, 1, 0, 1)
	rp.UnpackSplitMany(spec, z, 1, 0, 1)
	for k := range spec.Re {
		spec.Re[k] *= 0.5
	}
	for k := range spec.Im {
		spec.Im[k] *= 0.5
	}
}

// InverseSplit recovers the real sequence x (length ≤ n; a shorter x
// receives the leading samples) from its half spectrum spec, using z
// (length n/2) as scratch. spec is not modified. It runs the Many kernels at
// count 1 and applies the 1/n they leave out, an exact factor.
//
//repro:noalloc
func (rp *RealPlan) InverseSplit(x []float64, spec, z SplitSlice) {
	if spec.Len() != rp.half+1 || z.Len() != rp.half || len(x) > rp.n {
		panic(fmt.Sprintf("fft: RealPlan(%d).InverseSplit x %d, spec %d, z %d", rp.n, len(x), spec.Len(), z.Len()))
	}
	rp.PreInverseSplitManyRev(z, spec, 1, 0, 1)
	rp.cplx.InverseSplitManyRev(z, 1, 0, 1)
	inv := 1 / float64(rp.n)
	zr, zi := z.Re, z.Im
	for j := 0; 2*j < len(x); j++ {
		x[2*j] = zr[j] * inv
		if 2*j+1 < len(x) {
			x[2*j+1] = zi[j] * inv
		}
	}
}

// realPlanCache memoises real plans by size, mirroring planCache.
var realPlanCache sync.Map // int -> *RealPlan

// RealPlanFor returns a cached real plan for power-of-two size n ≥ 2,
// creating it on first use. It panics on invalid sizes; use NewRealPlan for
// validated construction.
func RealPlanFor(n int) *RealPlan {
	if v, ok := realPlanCache.Load(n); ok {
		return v.(*RealPlan)
	}
	rp, err := NewRealPlan(n)
	if err != nil {
		panic(err)
	}
	actual, _ := realPlanCache.LoadOrStore(n, rp)
	return actual.(*RealPlan)
}
