package fft

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
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

// TestRealPlanSplitGoldenBits pins the bits of RealPlan.ForwardSplit and
// InverseSplit across commits: per size, one FNV-64 over every output word
// of a forward and an inverse transform of seeded inputs, full-length and
// short (zero-padded on the way in, truncated on the way out), at unit scale
// and scaled towards the bottom of the exponent range, where a factor that
// is not an exact power of two would show. Scratch starts out as NaN, so a
// transform that read it would show too. The values were recorded with the
// contiguous split kernel, whose 0.5 and 1/n factors sat inside the phases.
// Skipped on the targets where the compiler may fuse x*y+z into one
// rounding (arm64, ppc64, ppc64le, riscv64, s390x, loong64); amd64, with or
// without FMA hardware, and 386 round every product and sum on its own.
func TestRealPlanSplitGoldenBits(t *testing.T) {
	switch runtime.GOARCH {
	case "arm64", "ppc64", "ppc64le", "riscv64", "s390x", "loong64":
		t.Skip("transform bits are not pinned where multiply-adds may fuse")
	}
	for _, tc := range []struct {
		n    int
		want uint64
	}{
		{2, 0x1e78fda0f41cec8e},
		{4, 0x9a53df2a42ba8823},
		{16, 0x8cda0321704e9ab3},
		{64, 0xbf4afd4113eeb5c4},
		{512, 0x474657da0cd983d2},
		{1024, 0xd0e9f9c7ce3e8a15},
	} {
		rp := RealPlanFor(tc.n)
		rng := rand.New(rand.NewSource(int64(tc.n)))
		h := fnv.New64a()
		var word [8]byte
		sum := func(v []float64) {
			for _, f := range v {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(f))
				h.Write(word[:])
			}
		}
		spec, z := NewSplit(rp.SpecLen()), NewSplit(tc.n/2)
		for _, xlen := range []int{tc.n, tc.n - 1, tc.n/2 + 1, 1} {
			for _, scale := range []float64{1, 1e-300} {
				x := randReal(rng, xlen)
				for i := range x {
					x[i] *= scale
				}
				for i := range z.Re {
					z.Re[i], z.Im[i] = math.NaN(), math.NaN()
				}
				rp.ForwardSplit(spec, x, z)
				sum(spec.Re)
				sum(spec.Im)
				keep := SplitSlice{Re: append([]float64(nil), spec.Re...), Im: append([]float64(nil), spec.Im...)}
				for i := range z.Re {
					z.Re[i], z.Im[i] = math.NaN(), math.NaN()
				}
				back := make([]float64, xlen)
				rp.InverseSplit(back, spec, z)
				sum(back)
				for k := range spec.Re {
					if math.Float64bits(spec.Re[k]) != math.Float64bits(keep.Re[k]) ||
						math.Float64bits(spec.Im[k]) != math.Float64bits(keep.Im[k]) {
						t.Fatalf("n=%d xlen=%d: InverseSplit modified spec bin %d", tc.n, xlen, k)
					}
				}
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("n=%d: transform checksum %#x, want %#x — RealPlan's split transforms changed bits", tc.n, got, tc.want)
		}
	}
}

// TestSplitSliceHelpers covers Resize retention and Zero.
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
	s.Zero()
	for i := range s.Re {
		if s.Re[i] != 0 || s.Im[i] != 0 {
			t.Fatal("Zero left residue")
		}
	}
}

// TestSplitTransformZeroAlloc is the planned-forward allocation gate: a
// warm split transform (RealPlan's single-vector form and the bin-major Many
// kernels the engine runs; forward and inverse) must not allocate.
func TestSplitTransformZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	const n, count = 64, 4
	rp := RealPlanFor(n)
	p := rp.Complex()
	x := randReal(rng, n)
	spec := NewSplit(rp.SpecLen())
	z := NewSplit(rp.half)
	zMany := randSplit(rng, rp.half*count)
	specMany := NewSplit(rp.SpecLen() * count)
	allocs := testing.AllocsPerRun(50, func() {
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
