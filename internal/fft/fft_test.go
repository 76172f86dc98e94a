package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func randComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func randReal(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func maxDiff(a, b []complex128) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// dftRef is the allocating O(n²) oracle for tests, routed through DFTInto.
func dftRef(x []complex128) []complex128 {
	out := make([]complex128, len(x))
	DFTInto(out, x)
	return out
}

func maxDiffReal(a, b []float64) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestNewPlanRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, -1, 3, 5, 6, 7, 12, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d): expected error, got nil", n)
		}
	}
	for _, n := range []int{1, 2, 4, 8, 1024} {
		if _, err := NewPlan(n); err != nil {
			t.Errorf("NewPlan(%d): unexpected error %v", n, err)
		}
	}
}

func TestFFTMatchesDFTPowerOfTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256, 1024} {
		x := randComplex(rng, n)
		if d := maxDiff(FFT(x), dftRef(x)); d > tol*float64(n) {
			t.Errorf("n=%d: FFT differs from DFT by %g", n, d)
		}
	}
}

func TestFFTMatchesDFTArbitrarySizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Includes the paper's layer sizes that are not powers of two: 121
	// (Arch-2 input), 10 (softmax output).
	for _, n := range []int{3, 5, 7, 10, 11, 12, 15, 121, 100, 255, 243} {
		x := randComplex(rng, n)
		if d := maxDiff(FFT(x), dftRef(x)); d > tol*float64(n) {
			t.Errorf("n=%d: Bluestein FFT differs from DFT by %g", n, d)
		}
	}
}

func TestIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 8, 10, 121, 128, 1000, 1024} {
		x := randComplex(rng, n)
		if d := maxDiff(IFFT(FFT(x)), x); d > tol*float64(n) {
			t.Errorf("n=%d: IFFT(FFT(x)) differs from x by %g", n, d)
		}
	}
}

func TestForwardInverseInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 256
	p := PlanFor(n)
	x := randComplex(rng, n)
	want := FFT(x)
	buf := append([]complex128(nil), x...)
	p.Forward(buf, buf) // in-place
	if d := maxDiff(buf, want); d > tol*float64(n) {
		t.Errorf("in-place forward differs by %g", d)
	}
	p.Inverse(buf, buf)
	if d := maxDiff(buf, x); d > tol*float64(n) {
		t.Errorf("in-place round trip differs by %g", d)
	}
}

func TestLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 << (uint(r.Intn(7)) + 1)
		x := randComplex(r, n)
		y := randComplex(r, n)
		a := complex(r.NormFloat64(), r.NormFloat64())
		lhs := make([]complex128, n)
		for i := range lhs {
			lhs[i] = a*x[i] + y[i]
		}
		fl := FFT(lhs)
		fx := FFT(x)
		fy := FFT(y)
		for i := range fl {
			if cmplx.Abs(fl[i]-(a*fx[i]+fy[i])) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(300)
		x := randComplex(r, n)
		var et float64
		for _, v := range x {
			et += real(v)*real(v) + imag(v)*imag(v)
		}
		var ef float64
		for _, v := range FFT(x) {
			ef += real(v)*real(v) + imag(v)*imag(v)
		}
		ef /= float64(n)
		return math.Abs(et-ef) <= 1e-8*(1+et)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestTimeShiftTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 64
	x := randComplex(rng, n)
	shift := 5
	shifted := make([]complex128, n)
	for i := range shifted {
		shifted[i] = x[((i-shift)%n+n)%n]
	}
	fx := FFT(x)
	fs := FFT(shifted)
	for k := 0; k < n; k++ {
		ang := -2 * math.Pi * float64(k) * float64(shift) / float64(n)
		want := fx[k] * cmplx.Exp(complex(0, ang))
		if cmplx.Abs(fs[k]-want) > 1e-8 {
			t.Fatalf("shift theorem violated at bin %d: got %v want %v", k, fs[k], want)
		}
	}
}

func TestConvolutionTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{4, 16, 60, 121, 128} {
		a := randReal(rng, n)
		b := randReal(rng, n)
		// Direct circular convolution.
		want := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want[i] += a[((i-j)%n+n)%n] * b[j]
			}
		}
		got := CircularConvolve(a, b)
		if d := maxDiffReal(got, want); d > 1e-8*float64(n) {
			t.Errorf("n=%d: circular convolution differs by %g", n, d)
		}
	}
}

func TestRFFTMatchesFullFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{2, 4, 8, 16, 64, 121, 100, 256, 11} {
		x := randReal(rng, n)
		full := FFTReal(x)
		half := RFFT(x)
		if len(half) != n/2+1 {
			t.Fatalf("n=%d: half spectrum length %d, want %d", n, len(half), n/2+1)
		}
		for k := 0; k <= n/2; k++ {
			if cmplx.Abs(half[k]-full[k]) > 1e-8*float64(n) {
				t.Errorf("n=%d bin %d: RFFT %v, full %v", n, k, half[k], full[k])
			}
		}
	}
}

func TestIRFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 8, 64, 100, 256} {
		x := randReal(rng, n)
		back := IRFFT(RFFT(x), n)
		if d := maxDiffReal(back, x); d > 1e-9*float64(n) {
			t.Errorf("n=%d: IRFFT(RFFT(x)) differs by %g", n, d)
		}
	}
}

func TestFFT2MatchesSeparableDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rows, cols := 6, 8
	x := randComplex(rng, rows*cols)
	got := FFT2(x, rows, cols)
	// Direct 2-D DFT.
	want := make([]complex128, rows*cols)
	for u := 0; u < rows; u++ {
		for v := 0; v < cols; v++ {
			var sum complex128
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					ang := -2 * math.Pi * (float64(u*r)/float64(rows) + float64(v*c)/float64(cols))
					sum += x[r*cols+c] * cmplx.Exp(complex(0, ang))
				}
			}
			want[u*cols+v] = sum
		}
	}
	if d := maxDiff(got, want); d > 1e-8*float64(rows*cols) {
		t.Errorf("2-D FFT differs from direct DFT by %g", d)
	}
}

func TestIFFT2RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rows, cols := 9, 5
	x := randComplex(rng, rows*cols)
	if d := maxDiff(IFFT2(FFT2(x, rows, cols), rows, cols), x); d > 1e-8 {
		t.Errorf("2-D round trip differs by %g", d)
	}
}

func TestDCComponentIsSum(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	spec := RFFT(x)
	if math.Abs(real(spec[0])-36) > 1e-12 || math.Abs(imag(spec[0])) > 1e-12 {
		t.Errorf("DC bin = %v, want 36", spec[0])
	}
}

func TestPlanForCachesPlans(t *testing.T) {
	if PlanFor(512) != PlanFor(512) {
		t.Error("PlanFor should return the cached plan for the same size")
	}
	if PlanFor(512).Size() != 512 {
		t.Error("plan size mismatch")
	}
}

func TestNextPow2AndIsPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 121: 128, 128: 128, 1000: 1024}
	for in, want := range cases {
		if got := NextPow2(in); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", in, got, want)
		}
	}
	if IsPow2(0) || IsPow2(3) || !IsPow2(1) || !IsPow2(4096) {
		t.Error("IsPow2 misclassification")
	}
}

func TestEmptyInputs(t *testing.T) {
	if got := FFT(nil); len(got) != 0 {
		t.Error("FFT(nil) should be empty")
	}
	if got := IFFT(nil); len(got) != 0 {
		t.Error("IFFT(nil) should be empty")
	}
	if got := RFFT(nil); got != nil {
		t.Error("RFFT(nil) should be nil")
	}
}

func BenchmarkFFTPow2(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{64, 256, 1024, 4096} {
		x := randComplex(rng, n)
		buf := make([]complex128, n)
		p := PlanFor(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Forward(buf, x)
			}
		})
	}
}

func BenchmarkDFTDirect(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{64, 256, 1024} {
		x := randComplex(rng, n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dftRef(x)
			}
		})
	}
}

func BenchmarkBluestein(b *testing.B) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{121, 1000} {
		x := randComplex(rng, n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FFT(x)
			}
		})
	}
}

func sizeName(n int) string {
	return "n=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
