package fft

import (
	"math"
	"math/rand"
	"testing"
)

// The bin-major Many kernels are the only transforms on the serving path
// (circulant's engine runs nothing else), so they are tested here directly
// rather than only through the products built on them.

// sentinel marks the cells a kernel must leave alone: padding columns past
// count, and columns outside the [m0, m1) range it was asked to transform.
const sentinel = -12345.678

// manyCase is one layout the engine can hand the kernels: count transforms
// in rows of length stride ≥ count, of which columns [m0, m1) are processed.
type manyCase struct{ count, stride, m0, m1 int }

func manyCases() []manyCase {
	return []manyCase{
		{1, 1, 0, 1},    // batch of one, no padding: rowPitch(1)
		{2, 2, 0, 2},    // batch 1 through a two-block layer: one column pair
		{4, 4, 0, 4},    // batch 1 through a four-block layer: two pairs
		{3, 3, 0, 3},    // odd count
		{6, 8, 1, 6},    // range from an odd column: two pairs and a lone last column
		{5, 9, 0, 5},    // padded stride
		{32, 40, 0, 32}, // rowPitch(32)
		{7, 8, 2, 5},    // interior column range (a worker's share)
		{7, 8, 0, 3},    // leading range
		{7, 8, 3, 7},    // trailing range
		{4, 4, 2, 2},    // empty range: nothing may move
	}
}

// TestSplitManyRevMatchesPlan pins the claim in splitmany.go's header:
// ForwardSplitManyRev/InverseSplitManyRev compute, for every column, exactly
// the bits Plan.Forward/Inverse compute for that column's vector — the
// inverse times n, an exact power of two, since the Many kernel leaves the
// 1/n sweep to its caller — at sizes 1 to 1024, with rows written through
// BitReversal(), at padded strides and on column sub-ranges, which must
// leave every other column untouched. The sizes cover every stage schedule:
// the radix-8 head alone (8), followed by one fused stage pair (32) or two
// (512), or by pairs and a trailing radix-2 stage (16, 64, 256, 1024).
func TestSplitManyRevMatchesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for n := 1; n <= 1024; n <<= 1 {
		p := PlanFor(n)
		perm := p.BitReversal()
		for _, tc := range manyCases() {
			for _, inverse := range []bool{false, true} {
				cols := make([][]complex128, tc.count)
				d := NewSplit(n * tc.stride)
				for i := range d.Re {
					d.Re[i], d.Im[i] = sentinel, sentinel
				}
				for m := range cols {
					cols[m] = randComplex(rng, n)
					for j, v := range cols[m] {
						d.Re[int(perm[j])*tc.stride+m] = real(v)
						d.Im[int(perm[j])*tc.stride+m] = imag(v)
					}
				}
				before := SplitSlice{Re: append([]float64(nil), d.Re...), Im: append([]float64(nil), d.Im...)}
				want := make([]complex128, n)
				if inverse {
					p.InverseSplitManyRev(d, tc.stride, tc.m0, tc.m1)
				} else {
					p.ForwardSplitManyRev(d, tc.stride, tc.m0, tc.m1)
				}
				for m := 0; m < tc.stride; m++ {
					if m < tc.m0 || m >= tc.m1 {
						for k := 0; k < n; k++ {
							i := k*tc.stride + m
							if math.Float64bits(d.Re[i]) != math.Float64bits(before.Re[i]) ||
								math.Float64bits(d.Im[i]) != math.Float64bits(before.Im[i]) {
								t.Fatalf("n=%d %+v inverse=%v: column %d outside the range was written at row %d", n, tc, inverse, m, k)
							}
						}
						continue
					}
					if inverse {
						p.Inverse(want, cols[m])
						for k := range want {
							want[k] *= complex(float64(n), 0)
						}
					} else {
						p.Forward(want, cols[m])
					}
					for k := 0; k < n; k++ {
						i := k*tc.stride + m
						if math.Float64bits(d.Re[i]) != math.Float64bits(real(want[k])) ||
							math.Float64bits(d.Im[i]) != math.Float64bits(imag(want[k])) {
							t.Fatalf("n=%d %+v inverse=%v column %d bin %d: many (%g,%g), plan %v",
								n, tc, inverse, m, k, d.Re[i], d.Im[i], want[k])
						}
					}
				}
			}
		}
	}
}

// TestSplitManyRevRealPhases round-trips the real-input phases the engine
// wraps around those kernels — pack through BitReversal, ForwardSplitManyRev,
// UnpackSplitMany against 2 × RFFT; PreInverseSplitManyRev,
// InverseSplitManyRev against n × IRFFT, the scale contract of splitmany.go's
// header — within 1e-12 of the unscaled values, on the same layouts.
func TestSplitManyRevRealPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	for n := 2; n <= 256; n <<= 1 {
		rp := RealPlanFor(n)
		p, h := rp.Complex(), n/2
		perm := p.BitReversal()
		for _, tc := range manyCases() {
			xs := make([][]float64, tc.count)
			z := NewSplit(h * tc.stride)
			spec := NewSplit((h + 1) * tc.stride)
			for i := range spec.Re {
				spec.Re[i], spec.Im[i] = sentinel, sentinel
			}
			for m := range xs {
				xs[m] = randReal(rng, n)
				for j := 0; j < h; j++ {
					z.Re[int(perm[j])*tc.stride+m] = xs[m][2*j]
					z.Im[int(perm[j])*tc.stride+m] = xs[m][2*j+1]
				}
			}
			p.ForwardSplitManyRev(z, tc.stride, tc.m0, tc.m1)
			rp.UnpackSplitMany(spec, z, tc.stride, tc.m0, tc.m1)
			for m := 0; m < tc.stride; m++ {
				if m < tc.m0 || m >= tc.m1 {
					for k := 0; k <= h; k++ {
						if spec.Re[k*tc.stride+m] != sentinel || spec.Im[k*tc.stride+m] != sentinel {
							t.Fatalf("n=%d %+v: UnpackSplitMany wrote column %d outside the range", n, tc, m)
						}
					}
					continue
				}
				want := RFFT(xs[m])
				for k := 0; k <= h; k++ {
					i := k*tc.stride + m
					if d := math.Abs(spec.Re[i]/2-real(want[k])) + math.Abs(spec.Im[i]/2-imag(want[k])); d > 1e-12 {
						t.Fatalf("n=%d %+v column %d bin %d: unpacked (%g,%g), RFFT %v", n, tc, m, k, spec.Re[i], spec.Im[i], want[k])
					}
				}
			}

			// Inverse leg, from RFFT's own spectra so the two legs are
			// checked independently.
			for i := range z.Re {
				z.Re[i], z.Im[i] = sentinel, sentinel
			}
			halves := make([][]complex128, tc.count)
			for m := range xs {
				halves[m] = RFFT(xs[m])
				for k, v := range halves[m] {
					spec.Re[k*tc.stride+m], spec.Im[k*tc.stride+m] = real(v), imag(v)
				}
			}
			rp.PreInverseSplitManyRev(z, spec, tc.stride, tc.m0, tc.m1)
			p.InverseSplitManyRev(z, tc.stride, tc.m0, tc.m1)
			for m := 0; m < tc.stride; m++ {
				if m < tc.m0 || m >= tc.m1 {
					for j := 0; j < h; j++ {
						if z.Re[j*tc.stride+m] != sentinel || z.Im[j*tc.stride+m] != sentinel {
							t.Fatalf("n=%d %+v: inverse phases wrote column %d outside the range", n, tc, m)
						}
					}
					continue
				}
				want := IRFFT(halves[m], n)
				for j := 0; j < h; j++ {
					i := j*tc.stride + m
					if d := math.Abs(z.Re[i]/float64(n)-want[2*j]) + math.Abs(z.Im[i]/float64(n)-want[2*j+1]); d > 1e-12 {
						t.Fatalf("n=%d %+v column %d sample %d: inverse (%g,%g), IRFFT (%g,%g)",
							n, tc, m, 2*j, z.Re[i], z.Im[i], want[2*j], want[2*j+1])
					}
				}
			}
		}
	}
}

// TestSplitManyRealPhasesMatchCountOne holds every column of a multi-column
// pass to the bits of the same column transformed alone, at count 1 and
// stride 1, through both real-transform legs: ForwardSplitManyRev +
// UnpackSplitMany, and PreInverseSplitManyRev + InverseSplitManyRev, at unit
// scale and towards the bottom of the exponent range. A lone column never
// has a partner, so on amd64 this compares the column-pair kernels with the
// Go loops they stand in for.
func TestSplitManyRealPhasesMatchCountOne(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for n := 2; n <= 1024; n <<= 1 {
		rp := RealPlanFor(n)
		p, h := rp.Complex(), n/2
		for _, tc := range manyCases() {
			for _, scale := range []float64{1, 1e-300} {
				z := randSplit(rng, h*tc.stride)
				spec := randSplit(rng, (h+1)*tc.stride)
				for i := range z.Re {
					z.Re[i], z.Im[i] = z.Re[i]*scale, z.Im[i]*scale
				}
				for i := range spec.Re {
					spec.Re[i], spec.Im[i] = spec.Re[i]*scale, spec.Im[i]*scale
				}
				fwdIn, invIn := column(z, tc.stride), column(spec, tc.stride)
				fwd := NewSplit((h + 1) * tc.stride)
				p.ForwardSplitManyRev(z, tc.stride, tc.m0, tc.m1)
				rp.UnpackSplitMany(fwd, z, tc.stride, tc.m0, tc.m1)
				inv := NewSplit(h * tc.stride)
				rp.PreInverseSplitManyRev(inv, spec, tc.stride, tc.m0, tc.m1)
				p.InverseSplitManyRev(inv, tc.stride, tc.m0, tc.m1)
				for m := tc.m0; m < tc.m1; m++ {
					zm, out := fwdIn(m), NewSplit(h+1)
					p.ForwardSplitManyRev(zm, 1, 0, 1)
					rp.UnpackSplitMany(out, zm, 1, 0, 1)
					if k, ok := sameColumn(fwd, out, tc.stride, m); !ok {
						t.Fatalf("n=%d %+v scale %g column %d: forward phases differ from count 1 at bin %d", n, tc, scale, m, k)
					}
					out = NewSplit(h)
					rp.PreInverseSplitManyRev(out, invIn(m), 1, 0, 1)
					p.InverseSplitManyRev(out, 1, 0, 1)
					if k, ok := sameColumn(inv, out, tc.stride, m); !ok {
						t.Fatalf("n=%d %+v scale %g column %d: inverse phases differ from count 1 at row %d", n, tc, scale, m, k)
					}
				}
			}
		}
	}
}

// column returns a function copying column m of a bin-major buffer out as a
// count-1 buffer, captured before the buffer is transformed.
func column(d SplitSlice, stride int) func(m int) SplitSlice {
	keep := SplitSlice{Re: append([]float64(nil), d.Re...), Im: append([]float64(nil), d.Im...)}
	return func(m int) SplitSlice {
		c := NewSplit(d.Len() / stride)
		for k := range c.Re {
			c.Re[k], c.Im[k] = keep.Re[k*stride+m], keep.Im[k*stride+m]
		}
		return c
	}
}

// sameColumn reports whether column m of the bin-major d holds the bits of
// the count-1 buffer c, and the first row where it does not.
func sameColumn(d, c SplitSlice, stride, m int) (int, bool) {
	for k := range c.Re {
		i := k*stride + m
		if math.Float64bits(d.Re[i]) != math.Float64bits(c.Re[k]) ||
			math.Float64bits(d.Im[i]) != math.Float64bits(c.Im[k]) {
			return k, false
		}
	}
	return 0, true
}

// TestSplitManyRevRejectsBadLayouts pins the panic contract: a buffer whose
// length does not match rows × stride, or a column range outside the
// stride, is a caller bug and must not be silently truncated.
func TestSplitManyRevRejectsBadLayouts(t *testing.T) {
	rp := RealPlanFor(16)
	p := rp.Complex() // 8 rows
	for name, fn := range map[string]func(){
		"forward short data":    func() { p.ForwardSplitManyRev(NewSplit(8*4-1), 4, 0, 4) },
		"inverse long data":     func() { p.InverseSplitManyRev(NewSplit(8*4+1), 4, 0, 4) },
		"range past stride":     func() { p.ForwardSplitManyRev(NewSplit(8*4), 4, 0, 5) },
		"negative range start":  func() { p.ForwardSplitManyRev(NewSplit(8*4), 4, -1, 4) },
		"inverted range":        func() { p.InverseSplitManyRev(NewSplit(8*4), 4, 3, 2) },
		"unpack short spec":     func() { rp.UnpackSplitMany(NewSplit(8*4), NewSplit(8*4), 4, 0, 4) },
		"unpack short packed":   func() { rp.UnpackSplitMany(NewSplit(9*4), NewSplit(7*4), 4, 0, 4) },
		"unpack range":          func() { rp.UnpackSplitMany(NewSplit(9*4), NewSplit(8*4), 4, 0, 5) },
		"preinverse short spec": func() { rp.PreInverseSplitManyRev(NewSplit(8*4), NewSplit(8*4), 4, 0, 4) },
		"preinverse long z":     func() { rp.PreInverseSplitManyRev(NewSplit(9*4), NewSplit(9*4), 4, 0, 4) },
		"preinverse range":      func() { rp.PreInverseSplitManyRev(NewSplit(8*4), NewSplit(9*4), 4, 2, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
