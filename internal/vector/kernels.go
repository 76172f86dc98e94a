// Package vector is the top-k similarity tier: an in-memory vector store
// with copy-on-write snapshots (lock-free queries), float32 brute-force
// dot/cosine kernels in the fixed-width multi-lane style the ROADMAP
// prescribes for the FFT hot loops, an int8-quantised scoring mirror
// reusing the quant package's symmetric-scale machinery, and a
// coarse-quantiser (IVF-style) ANN index with the brute-force scan as its
// exact oracle.
//
// The tier exists because the serving stack now produces embeddings
// (internal/embed): a model's penultimate activation goes in, nearest
// stored vectors come out. The kernels below are shaped like the spectral
// MAC loops — four independent accumulator lanes over contiguous float32.
// The exact scan runs Dot's lanes four rows at a time in SSE2 on amd64
// (dot_amd64.s), with Dot's bits; no CPU-feature dispatch is needed.
package vector

import (
	"math"

	"repro/internal/quant"
)

// Dot returns ⟨a,b⟩ over float32 in four independent accumulator lanes.
// The lanes break the loop-carried dependence of a single running sum, so
// the compiler can keep four FMAs in flight (and a vectorising backend
// can widen each lane); the tail of up to three elements folds into lane
// 0. Panics on mismatched lengths — callers validate dimensions at the
// store boundary, not per MAC.
//
//repro:noalloc
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vector: Dot length mismatch")
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa, bb := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Norm returns the L2 norm of a, accumulated in the same four-lane form
// as Dot.
//
//repro:noalloc
func Norm(a []float32) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa := a[i : i+4 : i+4]
		s0 += aa[0] * aa[0]
		s1 += aa[1] * aa[1]
		s2 += aa[2] * aa[2]
		s3 += aa[3] * aa[3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * a[i]
	}
	return float32(math.Sqrt(float64((s0 + s1) + (s2 + s3))))
}

// DotInt8 returns ⟨a,b⟩ over int8 values accumulated in int32, eight
// lanes wide: int8×int8 products fit int16, so eight int32 accumulators
// absorb dims up to 2^16 without overflow, far past MaxDim.
//
//repro:noalloc
func DotInt8(a, b []int8) int32 {
	if len(a) != len(b) {
		panic("vector: DotInt8 length mismatch")
	}
	var s0, s1, s2, s3, s4, s5, s6, s7 int32
	i := 0
	for ; i+8 <= len(a); i += 8 {
		aa, bb := a[i:i+8:i+8], b[i:i+8:i+8]
		s0 += int32(aa[0]) * int32(bb[0])
		s1 += int32(aa[1]) * int32(bb[1])
		s2 += int32(aa[2]) * int32(bb[2])
		s3 += int32(aa[3]) * int32(bb[3])
		s4 += int32(aa[4]) * int32(bb[4])
		s5 += int32(aa[5]) * int32(bb[5])
		s6 += int32(aa[6]) * int32(bb[6])
		s7 += int32(aa[7]) * int32(bb[7])
	}
	for ; i < len(a); i++ {
		s0 += int32(a[i]) * int32(b[i])
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// quantizeInt8 fills q with the symmetric int8 quantisation of v and
// returns the scale, using the repo-wide quant convention (max|v| maps to
// ±127, round-to-even, scale 1 for all-zero input).
//
//repro:noalloc
func quantizeInt8(q []int8, v []float32) float32 {
	maxAbs := 0.0
	for _, x := range v {
		if a := math.Abs(float64(x)); a > maxAbs {
			maxAbs = a
		}
	}
	scale := quant.ScaleFor(maxAbs, 8)
	levels := float64(quant.Levels(8))
	for i, x := range v {
		r := math.RoundToEven(float64(x) / scale)
		if r > levels {
			r = levels
		} else if r < -levels {
			r = -levels
		}
		q[i] = int8(r)
	}
	return float32(scale)
}
