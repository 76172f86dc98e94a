package fft

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

var bigP = new(big.Int).SetUint64(nttP)

func bigMod(a uint64) *big.Int {
	return new(big.Int).Mod(new(big.Int).SetUint64(a), bigP)
}

// canon reduces a field element to its canonical representative in [0, p).
func canon(a uint64) uint64 {
	if a >= nttP {
		a -= nttP
	}
	return a
}

// checkFieldOps holds NTTAdd, nttSub and NTTMul to math/big on one operand
// pair. Operands are arbitrary uint64 — non-canonical values included — and
// results are compared modulo p, since the operations never canonicalise.
func checkFieldOps(t *testing.T, a, b uint64) {
	t.Helper()
	A, B := bigMod(a), bigMod(b)
	for _, op := range []struct {
		name string
		got  uint64
		want *big.Int
	}{
		{"add", NTTAdd(a, b), new(big.Int).Add(A, B)},
		{"sub", nttSub(a, b), new(big.Int).Sub(A, B)},
		{"mul", NTTMul(a, b), new(big.Int).Mul(A, B)},
	} {
		if want := op.want.Mod(op.want, bigP).Uint64(); canon(op.got) != want {
			t.Errorf("%s(%#x, %#x) = %#x ≡ %#x, want %#x", op.name, a, b, op.got, canon(op.got), want)
		}
	}
}

func TestNTTFieldOps(t *testing.T) {
	edge := []uint64{0, 1, nttEps, nttEps + 1, nttP - 1, nttP, nttP + 1, math.MaxUint64}
	for _, a := range edge {
		for _, b := range edge {
			checkFieldOps(t, a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	ones := uint64(math.MaxUint64)
	for i := 0; i < 20000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		switch i % 4 { // bias toward the top of the range, where the folds chain
		case 1:
			a |= ones << 20
		case 2:
			b |= ones << 20
		case 3:
			a |= ones << 33
			b |= ones << 33
		}
		checkFieldOps(t, a, b)
	}
}

func FuzzNTTMul(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(nttP-1, nttP-1)
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64))
	f.Add(nttEps<<32, nttEps+2)
	f.Fuzz(func(t *testing.T, a, b uint64) {
		checkFieldOps(t, a, b)
	})
}

// TestNTTRoot derives the hard-coded generator power from its definition
// and checks its order is exactly 2³².
func TestNTTRoot(t *testing.T) {
	exp := new(big.Int).Rsh(new(big.Int).Sub(bigP, big.NewInt(1)), nttMaxLog)
	if want := new(big.Int).Exp(big.NewInt(7), exp, bigP).Uint64(); nttRoot != want {
		t.Fatalf("nttRoot = %d, want 7^((p−1)/2³²) = %d", nttRoot, want)
	}
	w := nttRoot
	for i := 0; i < nttMaxLog-1; i++ {
		w = NTTMul(w, w)
	}
	if canon(w) != nttP-1 {
		t.Fatalf("nttRoot^(2³¹) = %#x, want −1: not a primitive 2³²-th root", canon(w))
	}
}

func TestNTTSignedMap(t *testing.T) {
	const half = int64(nttP / 2) // (p−1)/2 = 2⁶³ − 2³¹, the field's symmetric range
	for _, v := range []int64{0, 1, -1, 32767, -32767, math.MaxInt32, math.MinInt32, 1 << 62, -(1 << 62), half, -half} {
		r := NTTFromInt64(v)
		if got := NTTToInt64(r); got != v {
			t.Errorf("round trip of %d = %d (field %#x)", v, got, r)
		}
		// A non-canonical representative of the same element maps back too.
		if r < nttEps {
			if got := NTTToInt64(r + nttP); got != v {
				t.Errorf("round trip of %d through non-canonical %#x = %d", v, r+nttP, got)
			}
		}
	}
}

// TestNTTRoundTrip: Inverse(Forward(a)) = n·a for every length 1 … 4096,
// and scaling by InvN recovers a.
func TestNTTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 4096; n <<= 1 {
		p := NTTPlanFor(n)
		if p.Size() != n {
			t.Fatalf("NTTPlanFor(%d).Size() = %d", n, p.Size())
		}
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() // non-canonical inputs included
		}
		x := append([]uint64(nil), a...)
		p.Forward(x)
		p.Inverse(x)
		for i := range a {
			if want := NTTMul(a[i], uint64(n)); canon(x[i]) != canon(want) {
				t.Fatalf("n=%d: Inverse(Forward(a))[%d] = %#x, want n·a = %#x", n, i, canon(x[i]), canon(want))
			}
			if got := NTTMul(x[i], p.InvN()); canon(got) != canon(a[i]) {
				t.Fatalf("n=%d: InvN-scaled round trip [%d] = %#x, want %#x", n, i, canon(got), canon(a[i]))
			}
		}
	}
}

// TestNTTForwardIsDFT pins the transform's definition, not only its
// invertibility: Forward's output is the DFT over the field at ω_n, in
// bit-reversed order.
func TestNTTForwardIsDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 32} {
		p := NTTPlanFor(n)
		var logn uint
		for 1<<logn < n {
			logn++
		}
		omega := uint64(1) // ω_1
		switch {
		case n == 2:
			omega = nttP - 1 // ω_2 = −1; the h = 1 stage stores only ω^0
		case n > 2:
			omega = p.tw[n/2+1]
		}
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64()
		}
		x := append([]uint64(nil), a...)
		p.Forward(x)
		wk := uint64(1) // ω^k
		for k := 0; k < n; k++ {
			var want uint64
			wjk := uint64(1)
			for j := 0; j < n; j++ {
				want = NTTAdd(want, NTTMul(a[j], wjk))
				wjk = NTTMul(wjk, wk)
			}
			if got := x[reverseBits(uint32(k), logn)]; canon(got) != canon(want) {
				t.Fatalf("n=%d: X[%d] = %#x, want %#x", n, k, canon(got), canon(want))
			}
			wk = NTTMul(wk, omega)
		}
	}
}

// TestNTTConvolutionTheorem: the pointwise product of two spectra, inverted
// and scaled, is the exact integer cyclic convolution — at the extreme
// int16 magnitudes the fixed-point build feeds it.
func TestNTTConvolutionTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 128, 256} {
		p := NTTPlanFor(n)
		a, b := make([]int64, n), make([]int64, n)
		for i := range a {
			a[i] = 32767 - 2*32767*int64(rng.Intn(2)) // ±32767
			b[i] = 32767 - 2*32767*int64(rng.Intn(2))
			if i%5 == 4 {
				a[i] = int64(rng.Intn(65535)) - 32767
			}
		}
		fa, fb := make([]uint64, n), make([]uint64, n)
		for i := range a {
			fa[i], fb[i] = NTTFromInt64(a[i]), NTTFromInt64(b[i])
		}
		p.Forward(fa)
		p.Forward(fb)
		for i := range fa {
			fa[i] = NTTMul(NTTMul(fa[i], fb[i]), p.InvN())
		}
		p.Inverse(fa)
		for t0 := 0; t0 < n; t0++ {
			var want int64
			for s := 0; s < n; s++ {
				want += a[s] * b[(t0-s+n)%n]
			}
			if got := NTTToInt64(fa[t0]); got != want {
				t.Fatalf("n=%d: (a ⊛ b)[%d] = %d, want %d", n, t0, got, want)
			}
		}
	}
}

func TestNTTBadLengthPanics(t *testing.T) {
	for _, n := range []int{0, -4, 3, 12, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NTTPlanFor(%d) did not panic", n)
				}
			}()
			NTTPlanFor(n)
		}()
	}
	for _, fn := range []func([]uint64){NTTPlanFor(8).Forward, NTTPlanFor(8).Inverse} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("transform of a wrong-length operand did not panic")
				}
			}()
			fn(make([]uint64, 4))
		}()
	}
}

// TestNTTZeroAlloc puts the transforms under `make alloc-gate`.
func TestNTTZeroAlloc(t *testing.T) {
	p := NTTPlanFor(64)
	x := make([]uint64, 64)
	if allocs := testing.AllocsPerRun(20, func() { p.Forward(x); p.Inverse(x) }); allocs > 0 {
		t.Errorf("Forward+Inverse allocate %.0f/op; want 0", allocs)
	}
}
