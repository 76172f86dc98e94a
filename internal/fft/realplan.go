package fft

import (
	"fmt"
	"math"
	"math/cmplx"
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
// The transform is split into phases (Pack → half-size Forward → Unpack, and
// PreInverse → half-size Inverse → PostInverse) so the circulant engine can
// run the middle phase as one bin-major pass over many packed vectors
// (splitmany.go). ForwardInto/InverseInto compose the phases for the
// single-vector case.
type RealPlan struct {
	n    int
	half int
	cplx *Plan        // half-size complex plan
	w    []complex128 // w[k] = e^{-2πi·k/n}, k ∈ [0, n/2]
	wi   []complex128 // wi[k] = e^{+2πi·k/n}, k ∈ [0, n/2)

	// Split (SoA) copies of w and wi for the planar phases (split.go).
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
	rp.w = make([]complex128, rp.half+1)
	rp.wi = make([]complex128, rp.half)
	for k := range rp.w {
		ang := 2 * math.Pi * float64(k) / float64(n)
		rp.w[k] = cmplx.Exp(complex(0, -ang))
		if k < rp.half {
			rp.wi[k] = cmplx.Exp(complex(0, ang))
		}
	}
	rp.splitTables()
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

// Pack folds the real sequence x into the length-n/2 complex sequence
// z[j] = x[2j] + i·x[2j+1]. x may be shorter than n; missing entries are
// treated as zero (the block-circulant layers zero-pad their tail blocks).
func (rp *RealPlan) Pack(z []complex128, x []float64) {
	if len(z) != rp.half || len(x) > rp.n {
		panic(fmt.Sprintf("fft: RealPlan(%d).Pack z %d, x %d", rp.n, len(z), len(x)))
	}
	if len(x) == rp.n { // full block: branch-free interleave
		for j := range z {
			z[j] = complex(x[2*j], x[2*j+1])
		}
		return
	}
	j := 0
	for ; 2*j+1 < len(x); j++ {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	if 2*j < len(x) {
		z[j] = complex(x[2*j], 0)
		j++
	}
	for ; j < rp.half; j++ {
		z[j] = 0
	}
}

// Unpack untangles the transformed packed sequence zf (length n/2) into the
// half spectrum spec (length n/2+1) of the original real sequence. The
// twiddle pass is written in explicit real arithmetic: the obvious complex
// divisions by 2 and 2i lower to runtime complex-division calls, which
// would eat most of the half-size transform's saving on this hot path.
func (rp *RealPlan) Unpack(spec, zf []complex128) {
	h := rp.half
	if len(spec) != h+1 || len(zf) != h {
		panic(fmt.Sprintf("fft: RealPlan(%d).Unpack spec %d, zf %d", rp.n, len(spec), len(zf)))
	}
	// k = 0 and k = h reduce to zf[0] against itself (w[0] = 1, w[h] = −1):
	// spec[0] = Re+Im parts summed, spec[h] their difference — handled
	// outside the loop so the interior needs no index reduction.
	z0 := zf[0]
	spec[0] = complex(real(z0)+imag(z0), 0)
	spec[h] = complex(real(z0)-imag(z0), 0)
	for k := 1; k < h; k++ {
		zk := zf[k]
		zr := zf[h-k] // conjugated component-wise below
		// fe = (zk + conj(zr))/2, fo = (zk − conj(zr))/(2i).
		feRe := 0.5 * (real(zk) + real(zr))
		feIm := 0.5 * (imag(zk) - imag(zr))
		foRe := 0.5 * (imag(zk) + imag(zr))
		foIm := 0.5 * (real(zr) - real(zk))
		wRe, wIm := real(rp.w[k]), imag(rp.w[k])
		spec[k] = complex(feRe+wRe*foRe-wIm*foIm, feIm+wRe*foIm+wIm*foRe)
	}
}

// ForwardInto computes the half spectrum (length n/2+1) of the real sequence
// x into spec, using z (length n/2) as scratch. spec must not alias z.
func (rp *RealPlan) ForwardInto(spec []complex128, x []float64, z []complex128) {
	rp.Pack(z, x)
	rp.cplx.Forward(z, z)
	rp.Unpack(spec, z)
}

// PreInverse converts the half spectrum spec (length n/2+1, conjugate-
// symmetric by construction) into the packed sequence z (length n/2) whose
// half-size inverse transform interleaves the real output.
func (rp *RealPlan) PreInverse(z, spec []complex128) {
	h := rp.half
	if len(z) != h || len(spec) != h+1 {
		panic(fmt.Sprintf("fft: RealPlan(%d).PreInverse z %d, spec %d", rp.n, len(z), len(spec)))
	}
	// Real-arithmetic form of xe = (spec[k] + conj(spec[h−k]))/2,
	// xo = (spec[k] − conj(spec[h−k]))/2 · wi[k], z[k] = xe + i·xo; see
	// Unpack for why the complex divisions are avoided.
	for k := 0; k < h; k++ {
		sk, sr := spec[k], spec[h-k]
		xeRe := 0.5 * (real(sk) + real(sr))
		xeIm := 0.5 * (imag(sk) - imag(sr))
		dRe := 0.5 * (real(sk) - real(sr))
		dIm := 0.5 * (imag(sk) + imag(sr))
		wRe, wIm := real(rp.wi[k]), imag(rp.wi[k])
		xoRe := dRe*wRe - dIm*wIm
		xoIm := dRe*wIm + dIm*wRe
		z[k] = complex(xeRe-xoIm, xeIm+xoRe)
	}
}

// PostInverse de-interleaves the inverse-transformed packed sequence zt into
// the real output x, which may be shorter than n (truncated tail block).
func (rp *RealPlan) PostInverse(x []float64, zt []complex128) {
	if len(zt) != rp.half || len(x) > rp.n {
		panic(fmt.Sprintf("fft: RealPlan(%d).PostInverse x %d, zt %d", rp.n, len(x), len(zt)))
	}
	if len(x) == rp.n { // full block: branch-free de-interleave
		for j, v := range zt {
			x[2*j] = real(v)
			x[2*j+1] = imag(v)
		}
		return
	}
	for j := 0; 2*j < len(x); j++ {
		x[2*j] = real(zt[j])
		if 2*j+1 < len(x) {
			x[2*j+1] = imag(zt[j])
		}
	}
}

// InverseInto recovers the real sequence x (length n) from its half spectrum
// spec, using z (length n/2) as scratch. spec is not modified.
func (rp *RealPlan) InverseInto(x []float64, spec, z []complex128) {
	rp.PreInverse(z, spec)
	rp.cplx.Inverse(z, z)
	rp.PostInverse(x, z)
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
