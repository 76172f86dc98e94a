package fft

import (
	"fmt"
	"math/bits"
	"sync"
)

// The number-theoretic transform: the DFT over the integers modulo the
// Goldilocks prime p = 2⁶⁴ − 2³² + 1 instead of over the complex numbers.
// The convolution theorem holds in any field with a root of unity of the
// right order, and p − 1 = 2³²·(2³² − 1), so every power-of-two length up
// to 2³² has one. Products of integers whose true result stays inside
// (−p/2, p/2] therefore come back exact — no rounding, no error bound —
// which is what lets the fixed-point build run the paper's "FFT →
// component-wise multiplication → IFFT" procedure in integer arithmetic and
// return the very accumulators a time-domain MAC would.
//
// A field element is any uint64, read modulo p: values in [p, 2⁶⁴) are
// legal everywhere and the operations below never canonicalise them. The
// two identities 2⁶⁴ ≡ ε and 2⁹⁶ ≡ −1 (mod p), with ε = 2³² − 1, reduce a
// carry, a borrow or the high word of a product with a few shifts and adds
// on plain uint64 — math/bits only, portable to the paper's ARM targets.
const (
	nttP   uint64 = 0xFFFFFFFF00000001 // the Goldilocks prime
	nttEps uint64 = 0xFFFFFFFF         // ε = 2³² − 1 ≡ 2⁶⁴ (mod p)
	// nttRoot = 7^((p−1)/2³²) is a primitive 2³²-th root of unity (7
	// generates the multiplicative group); ω_n is its 2³²/n-th power.
	nttRoot   uint64 = 1753635133440165772
	nttMaxLog        = 32
)

// NTTAdd returns a + b in the field. A carry out of 64 bits is worth ε;
// adding that ε can carry once more when both operands sit near 2⁶⁴ (but
// never a third time), hence two folds.
//
//repro:noalloc
func NTTAdd(a, b uint64) uint64 {
	s, c := bits.Add64(a, b, 0)
	s, c = bits.Add64(s, -c&nttEps, 0)
	return s + -c&nttEps
}

// nttSub returns a − b in the field: the mirror image of NTTAdd, a borrow
// being worth −ε.
//
//repro:noalloc
func nttSub(a, b uint64) uint64 {
	d, c := bits.Sub64(a, b, 0)
	d, c = bits.Sub64(d, -c&nttEps, 0)
	return d - -c&nttEps
}

// NTTMul returns a·b in the field. With the 128-bit product written
// hi·2⁶⁴ + lo and hi = h₁·2³² + h₀, the identities above give
// a·b ≡ lo − h₁ + h₀·ε. Neither fold can chain: after a borrow the
// difference is at least 2⁶⁴ − 2³², after a carry the sum is at most
// 2⁶⁴ − 2³³.
//
//repro:noalloc
func NTTMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	t, c := bits.Sub64(lo, hi>>32, 0)
	t -= -c & nttEps
	h0 := hi & nttEps
	r, c := bits.Add64(t, h0<<32-h0, 0)
	return r + -c&nttEps
}

// NTTFromInt64 maps a signed integer into the field: negative values are
// represented by v + p.
//
//repro:noalloc
func NTTFromInt64(v int64) uint64 {
	return uint64(v) + uint64(v>>63)&nttP
}

// NTTToInt64 maps a field element back to the signed integer of least
// magnitude it represents, in [−(p−1)/2, (p−1)/2]. It is the inverse of
// NTTFromInt64 on that range, which is 2⁶³ − 2³¹ either side of zero.
//
//repro:noalloc
func NTTToInt64(r uint64) int64 {
	if r >= nttP {
		r -= nttP
	}
	if r > nttP/2 {
		r -= nttP // wraps to the two's-complement negative
	}
	return int64(r)
}

// NTTPlan holds the twiddle tables of the number-theoretic transform of one
// power-of-two length. Like Plan it is immutable after creation and safe
// for concurrent use.
//
// The two transforms are a matched pair that never permutes: Forward is
// decimation in frequency and leaves its spectrum in bit-reversed order,
// Inverse is decimation in time and consumes that order. Spectra are only
// ever multiplied bin by bin against spectra in the same order, so the
// permutation pass of a textbook FFT would be pure overhead — the same
// observation as the float engine's …Rev kernels.
type NTTPlan struct {
	n int
	// tw[h+j] = ω_{2h}^j for every stage half-width h (a power of two below
	// n) and j < h: each stage reads its factors at unit stride. twInv holds
	// the inverse powers in the same layout. Index 0 is unused.
	tw, twInv []uint64
	invN      uint64
}

// newNTTPlan builds the tables for a length NTTPlanFor has validated.
func newNTTPlan(n int) *NTTPlan {
	p := &NTTPlan{
		n:     n,
		tw:    make([]uint64, n),
		twInv: make([]uint64, n),
		// n·(p−1)/n = p − 1 ≡ −1, so n⁻¹ = −(p−1)/n.
		invN: nttP - (nttP-1)/uint64(n),
	}
	for h := 1; h < n; h <<= 1 {
		w := nttRoot // ω_{2h}: square the 2³²-th root down to order 2h
		for order := nttMaxLog; 1<<order > 2*uint64(h); order-- {
			w = NTTMul(w, w)
		}
		p.tw[h], p.twInv[h] = 1, 1
		for j := 1; j < h; j++ {
			p.tw[h+j] = NTTMul(p.tw[h+j-1], w)
			// ω^h = −1, so ω^{−j} = −ω^{h−j}; filled from the top down.
			p.twInv[2*h-j] = nttSub(0, p.tw[h+j])
		}
	}
	return p
}

// nttPlanCache memoises plans by size, like planCache: a compiled program
// asks for the plan of its block size once per integer product op.
var nttPlanCache sync.Map // int -> *NTTPlan

// NTTPlanFor returns the cached plan for power-of-two length n, creating it
// on first use. Like PlanFor it panics if n is not a positive power of two
// (or exceeds 2³², the order of the field's largest power-of-two root).
func NTTPlanFor(n int) *NTTPlan {
	if v, ok := nttPlanCache.Load(n); ok {
		return v.(*NTTPlan)
	}
	if !IsPow2(n) || bits.TrailingZeros(uint(n)) > nttMaxLog {
		panic(fmt.Sprintf("fft: NTT size %d is not a power of two in [1, 2^%d]", n, nttMaxLog))
	}
	actual, _ := nttPlanCache.LoadOrStore(n, newNTTPlan(n))
	return actual.(*NTTPlan)
}

// Size returns the transform length of the plan.
//
//repro:noalloc
func (p *NTTPlan) Size() int { return p.n }

// InvN returns n⁻¹ in the field. Neither transform scales; a caller that
// multiplies one operand's spectrum by InvN once (the stored weights, say)
// gets correctly scaled products out of Inverse for free.
//
//repro:noalloc
func (p *NTTPlan) InvN() uint64 { return p.invN }

// Forward transforms x in place: natural order in, X[k] = Σ_j x[j]·ω_n^{jk}
// out in bit-reversed order. len(x) must equal p.Size().
//
//repro:noalloc
func (p *NTTPlan) Forward(x []uint64) {
	n := p.n
	if len(x) != n {
		panic(fmt.Sprintf("fft: NTT plan size %d, operand %d", n, len(x)))
	}
	for h := n >> 1; h > 1; h >>= 1 {
		tw := p.tw[h : 2*h]
		for s := 0; s < n; s += 2 * h {
			lo, hi := x[s : s+h][:len(tw)], x[s+h : s+2*h][:len(tw)]
			for j, w := range tw {
				a, b := lo[j], hi[j]
				lo[j] = NTTAdd(a, b)
				hi[j] = NTTMul(nttSub(a, b), w)
			}
		}
	}
	// The last stage's only twiddle is 1: no multiply.
	for s := 0; s+1 < n; s += 2 {
		a, b := x[s], x[s+1]
		x[s], x[s+1] = NTTAdd(a, b), nttSub(a, b)
	}
}

// Inverse is Forward's mirror, in place: a spectrum in bit-reversed order
// in, n times the sequence in natural order out — unscaled, see InvN.
// len(x) must equal p.Size().
//
//repro:noalloc
func (p *NTTPlan) Inverse(x []uint64) {
	n := p.n
	if len(x) != n {
		panic(fmt.Sprintf("fft: NTT plan size %d, operand %d", n, len(x)))
	}
	for s := 0; s+1 < n; s += 2 {
		a, b := x[s], x[s+1]
		x[s], x[s+1] = NTTAdd(a, b), nttSub(a, b)
	}
	for h := 2; h < n; h <<= 1 {
		tw := p.twInv[h : 2*h]
		for s := 0; s < n; s += 2 * h {
			lo, hi := x[s : s+h][:len(tw)], x[s+h : s+2*h][:len(tw)]
			for j, w := range tw {
				a, b := lo[j], NTTMul(hi[j], w)
				lo[j] = NTTAdd(a, b)
				hi[j] = nttSub(a, b)
			}
		}
	}
}
