package fft

import (
	"math"
	"math/rand"
	"testing"
)

func randSplit(rng *rand.Rand, n int) SplitSlice {
	s := NewSplit(n)
	for i := 0; i < n; i++ {
		s.Re[i] = rng.NormFloat64()
		s.Im[i] = rng.NormFloat64()
	}
	return s
}

// TestSplitMatchesComplexTransform requires the split butterflies to be
// bit-identical to the complex128 path: same butterfly order, same twiddle
// values, only the memory layout differs.
func TestSplitMatchesComplexTransform(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, n := range []int{1, 2, 4, 8, 32, 256, 1024} {
		p := PlanFor(n)
		s := randSplit(rng, n)
		x := make([]complex128, n)
		s.CopyTo(x)

		want := make([]complex128, n)
		p.Forward(want, x)
		got := NewSplit(n)
		p.ForwardSplit(got, s)
		for k := 0; k < n; k++ {
			if got.Re[k] != real(want[k]) || got.Im[k] != imag(want[k]) {
				t.Fatalf("n=%d forward bin %d: split (%g,%g), complex %v",
					n, k, got.Re[k], got.Im[k], want[k])
			}
		}

		p.Inverse(want, x)
		p.InverseSplit(got, s)
		for k := 0; k < n; k++ {
			if got.Re[k] != real(want[k]) || got.Im[k] != imag(want[k]) {
				t.Fatalf("n=%d inverse bin %d: split (%g,%g), complex %v",
					n, k, got.Re[k], got.Im[k], want[k])
			}
		}
	}
}

// TestSplitInPlace checks the aliased (dst == src) form against the
// out-of-place one.
func TestSplitInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for _, n := range []int{2, 16, 128} {
		p := PlanFor(n)
		s := randSplit(rng, n)
		out := NewSplit(n)
		p.ForwardSplit(out, s)
		p.ForwardSplit(s, s) // in place
		for k := 0; k < n; k++ {
			if s.Re[k] != out.Re[k] || s.Im[k] != out.Im[k] {
				t.Fatalf("n=%d bin %d: in-place (%g,%g) != out-of-place (%g,%g)",
					n, k, s.Re[k], s.Im[k], out.Re[k], out.Im[k])
			}
		}
	}
}

// TestRealPlanSplitMatchesComplexPhases checks every split phase of the
// real plan (Pack/Unpack/PreInverse/PostInverse) against its complex
// counterpart, including short (zero-padded and truncated) blocks.
func TestRealPlanSplitMatchesComplexPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	for _, n := range []int{2, 4, 16, 64, 512} {
		rp := RealPlanFor(n)
		for _, xlen := range []int{n, n - 1, n / 2, 1} {
			if xlen < 1 {
				continue
			}
			x := randReal(rng, xlen)

			// Forward: split spec vs complex spec.
			zc := make([]complex128, rp.half)
			specC := make([]complex128, rp.SpecLen())
			rp.ForwardInto(specC, x, zc)
			zs := NewSplit(rp.half)
			specS := NewSplit(rp.SpecLen())
			rp.ForwardSplit(specS, x, zs)
			for k := range specC {
				if d := math.Abs(specS.Re[k]-real(specC[k])) + math.Abs(specS.Im[k]-imag(specC[k])); d != 0 {
					t.Fatalf("n=%d xlen=%d bin %d: split spec (%g,%g), complex %v",
						n, xlen, k, specS.Re[k], specS.Im[k], specC[k])
				}
			}

			// Inverse: recover x from the split spectrum.
			gotX := make([]float64, xlen)
			rp.InverseSplit(gotX, specS, zs)
			wantX := make([]float64, xlen)
			rp.InverseInto(wantX, specC, zc)
			for i := range gotX {
				if gotX[i] != wantX[i] {
					t.Fatalf("n=%d xlen=%d sample %d: split inverse %g, complex %g",
						n, xlen, i, gotX[i], wantX[i])
				}
			}
		}
	}
}

// TestSplitSliceHelpers covers Resize retention, Zero and the interleave
// round trip.
func TestSplitSliceHelpers(t *testing.T) {
	s := NewSplit(8)
	for i := range s.Re {
		s.Re[i], s.Im[i] = float64(i), -float64(i)
	}
	smaller := s.Resize(4)
	if &smaller.Re[0] != &s.Re[0] {
		t.Error("Resize to a smaller length reallocated")
	}
	bigger := s.Resize(16)
	if bigger.Len() != 16 {
		t.Errorf("Resize(16).Len() = %d", bigger.Len())
	}
	x := make([]complex128, 8)
	s.CopyTo(x)
	back := NewSplit(8)
	back.CopyFrom(x)
	for i := range s.Re {
		if back.Re[i] != s.Re[i] || back.Im[i] != s.Im[i] {
			t.Fatalf("interleave round trip diverged at %d", i)
		}
	}
	back.Zero()
	for i := range back.Re {
		if back.Re[i] != 0 || back.Im[i] != 0 {
			t.Fatal("Zero left residue")
		}
	}
}

// TestSplitTransformZeroAlloc is the planned-forward allocation gate: a
// warm split transform (the contiguous single-vector form and the bin-major
// Many kernels the engine runs; forward and inverse, real and complex) must
// not allocate.
func TestSplitTransformZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	const n, count = 64, 4
	rp := RealPlanFor(n)
	p := rp.Complex()
	s := randSplit(rng, p.Size())
	dst := NewSplit(p.Size())
	x := randReal(rng, n)
	spec := NewSplit(rp.SpecLen())
	z := NewSplit(rp.half)
	zMany := randSplit(rng, rp.half*count)
	specMany := NewSplit(rp.SpecLen() * count)
	allocs := testing.AllocsPerRun(50, func() {
		p.ForwardSplit(dst, s)
		p.InverseSplit(dst, dst)
		rp.ForwardSplit(spec, x, z)
		rp.InverseSplit(x, spec, z)
		p.ForwardSplitManyRev(zMany, count, 0, count)
		rp.UnpackSplitMany(specMany, zMany, count, 0, count)
		rp.PreInverseSplitManyRev(zMany, specMany, count, 0, count)
		p.InverseSplitManyRev(zMany, count, 0, count)
	})
	if allocs > 0 {
		t.Errorf("warm split transforms allocate %.0f/op; want 0", allocs)
	}
}
