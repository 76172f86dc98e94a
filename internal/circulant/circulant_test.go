package circulant

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func maxAbsDiff(a, b []float64) float64 {
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

func TestCirculantDenseStructure(t *testing.T) {
	c := NewCirculant([]float64{1, 2, 3, 4})
	d := c.Dense()
	// Paper §III-C: first column is w, each column is the previous one
	// rotated down by one.
	want := [][]float64{
		{1, 4, 3, 2},
		{2, 1, 4, 3},
		{3, 2, 1, 4},
		{4, 3, 2, 1},
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if d.At(i, j) != want[i][j] {
				t.Fatalf("Dense[%d][%d] = %g, want %g", i, j, d.At(i, j), want[i][j])
			}
		}
	}
}

func TestCirculantMulVecMatchesDirectAndDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 5, 8, 16, 121, 128} {
		c := NewCirculant(randVec(rng, n))
		x := randVec(rng, n)
		fftPath := c.MulVec(x)
		direct := c.MulVecDirect(x)
		dense := tensor.MatVec(c.Dense(), x)
		if d := maxAbsDiff(fftPath, direct); d > 1e-9*float64(n) {
			t.Errorf("n=%d: FFT path differs from direct by %g", n, d)
		}
		if d := maxAbsDiff(fftPath, dense); d > 1e-9*float64(n) {
			t.Errorf("n=%d: FFT path differs from dense by %g", n, d)
		}
	}
}

func TestCirculantTransMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{2, 7, 16, 64} {
		c := NewCirculant(randVec(rng, n))
		x := randVec(rng, n)
		got := c.TransMulVec(x)
		want := tensor.MatVec(tensor.Transpose2D(c.Dense()), x)
		if d := maxAbsDiff(got, want); d > 1e-9*float64(n) {
			t.Errorf("n=%d: Cᵀx differs from dense by %g", n, d)
		}
	}
}

func TestBlockCirculantDenseBlocksAreCirculant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := MustNewBlockCirculant(8, 12, 4).InitRandom(rng)
	d := m.Dense()
	// Every 4×4 block must satisfy the circulant relation
	// B[a][c] = B[(a+1)%4][(c+1)%4].
	for bi := 0; bi < 2; bi++ {
		for bj := 0; bj < 3; bj++ {
			for a := 0; a < 4; a++ {
				for c := 0; c < 4; c++ {
					v1 := d.At(bi*4+a, bj*4+c)
					v2 := d.At(bi*4+(a+1)%4, bj*4+(c+1)%4)
					if v1 != v2 {
						t.Fatalf("block (%d,%d) not circulant at (%d,%d)", bi, bj, a, c)
					}
				}
			}
		}
	}
}

func TestBlockCirculantMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []struct{ rows, cols, block int }{
		{8, 8, 4},      // square, exact blocks
		{8, 16, 4},     // wide
		{16, 8, 4},     // tall
		{10, 14, 4},    // needs zero padding both ways
		{7, 5, 4},      // heavy padding
		{128, 256, 64}, // Arch-1 sized
		{121, 64, 32},  // Arch-2 input layer shape
		{6, 6, 1},      // degenerate block size 1 (diagonal-constant blocks)
		{9, 9, 16},     // block larger than matrix
	}
	for _, tc := range cases {
		m := MustNewBlockCirculant(tc.rows, tc.cols, tc.block).InitRandom(rng)
		x := randVec(rng, tc.cols)
		got := m.MulVec(x)
		want := tensor.MatVec(m.Dense(), x)
		if d := maxAbsDiff(got, want); d > 1e-8 {
			t.Errorf("%dx%d b=%d: MulVec differs from dense by %g", tc.rows, tc.cols, tc.block, d)
		}
	}
}

func TestBlockCirculantTransMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct{ rows, cols, block int }{
		{8, 8, 4}, {8, 16, 4}, {16, 8, 4}, {10, 14, 4}, {121, 64, 32}, {256, 128, 64},
	}
	for _, tc := range cases {
		m := MustNewBlockCirculant(tc.rows, tc.cols, tc.block).InitRandom(rng)
		x := randVec(rng, tc.rows)
		got := m.TransMulVec(x)
		want := tensor.MatVec(tensor.Transpose2D(m.Dense()), x)
		if d := maxAbsDiff(got, want); d > 1e-8 {
			t.Errorf("%dx%d b=%d: TransMulVec differs from dense by %g", tc.rows, tc.cols, tc.block, d)
		}
	}
}

func TestBlockCirculantProperty(t *testing.T) {
	// Random shapes: FFT path must always agree with the dense expansion.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows := 1 + r.Intn(40)
		cols := 1 + r.Intn(40)
		block := 1 << uint(r.Intn(4)) // 1,2,4,8
		m := MustNewBlockCirculant(rows, cols, block).InitRandom(r)
		x := randVec(r, cols)
		if maxAbsDiff(m.MulVec(x), tensor.MatVec(m.Dense(), x)) > 1e-8 {
			return false
		}
		y := randVec(r, rows)
		return maxAbsDiff(m.TransMulVec(y), tensor.MatVec(tensor.Transpose2D(m.Dense()), y)) <= 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// finiteDiffBaseGrad differentiates the quadratic probe loss L = Σ g·y of
// y = Wᵀx for fixed "upstream" weights g, so that ∂L/∂y = g exactly; this
// turns finite differences of L into direct checks of the analytic gradients.
func finiteDiffBaseGrad(m *BlockCirculant, x, g []float64, eps float64) *tensor.Tensor {
	loss := func() float64 {
		m.Refresh()
		y := m.TransMulVec(x)
		s := 0.0
		for i := range y {
			s += g[i] * y[i]
		}
		return s
	}
	grad := tensor.New(m.Base.Shape()...)
	for i := range m.Base.Data {
		orig := m.Base.Data[i]
		m.Base.Data[i] = orig + eps
		lp := loss()
		m.Base.Data[i] = orig - eps
		lm := loss()
		m.Base.Data[i] = orig
		grad.Data[i] = (lp - lm) / (2 * eps)
	}
	m.Refresh()
	return grad
}

func TestTransMulVecGradMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, tc := range []struct{ rows, cols, block int }{
		{8, 8, 4}, {12, 8, 4}, {8, 12, 4}, {10, 6, 4},
	} {
		m := MustNewBlockCirculant(tc.rows, tc.cols, tc.block).InitRandom(rng)
		x := randVec(rng, tc.rows)
		g := randVec(rng, tc.cols)
		gotBase, gotX := m.TransMulVecGrad(x, g)
		wantBase := finiteDiffBaseGrad(m, x, g, 1e-6)
		if !gotBase.AllClose(wantBase, 1e-5) {
			t.Errorf("%+v: base gradient mismatch", tc)
		}
		// ∂L/∂x = W·g
		wantX := tensor.MatVec(m.Dense(), g)
		if d := maxAbsDiff(gotX, wantX); d > 1e-8 {
			t.Errorf("%+v: input gradient differs by %g", tc, d)
		}
	}
}

func TestCompressionRatio(t *testing.T) {
	// A 1024×1024 matrix with 64-blocks stores 16·16·64 = 16384 parameters:
	// 64× compression, matching the paper's O(n²)→O(n) claim with factor b.
	m := MustNewBlockCirculant(1024, 1024, 64)
	if m.NumParams() != 16384 {
		t.Errorf("NumParams = %d, want 16384", m.NumParams())
	}
	if r := m.CompressionRatio(); math.Abs(r-64) > 1e-12 {
		t.Errorf("CompressionRatio = %g, want 64", r)
	}
	// Block size equal to matrix size gives the paper's [19] full-circulant
	// case: compression n.
	c := MustNewBlockCirculant(128, 128, 128)
	if r := c.CompressionRatio(); math.Abs(r-128) > 1e-12 {
		t.Errorf("full-circulant compression = %g, want 128", r)
	}
}

func TestNewBlockCirculantValidation(t *testing.T) {
	if _, err := NewBlockCirculant(0, 4, 2); err == nil {
		t.Error("expected error for zero rows")
	}
	if _, err := NewBlockCirculant(4, -1, 2); err == nil {
		t.Error("expected error for negative cols")
	}
	if _, err := NewBlockCirculant(4, 4, 0); err == nil {
		t.Error("expected error for zero block")
	}
}

func TestRefreshPicksUpBaseMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := MustNewBlockCirculant(8, 8, 4).InitRandom(rng)
	x := randVec(rng, 8)
	before := m.MulVec(x)
	m.Base.Data[0] += 1.0
	m.Refresh()
	after := m.MulVec(x)
	if maxAbsDiff(before, after) == 0 {
		t.Error("Refresh did not propagate base mutation to spectra")
	}
	want := tensor.MatVec(m.Dense(), x)
	if d := maxAbsDiff(after, want); d > 1e-9 {
		t.Errorf("post-refresh MulVec differs from dense by %g", d)
	}
}

func BenchmarkCirculantMulVecFFT(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{64, 256, 1024} {
		c := NewCirculant(randVec(rng, n))
		x := randVec(rng, n)
		b.Run("n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.MulVec(x)
			}
		})
	}
}

func BenchmarkCirculantMulVecDirect(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{64, 256, 1024} {
		c := NewCirculant(randVec(rng, n))
		x := randVec(rng, n)
		b.Run("n="+itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.MulVecDirect(x)
			}
		})
	}
}

func BenchmarkBlockCirculantTransMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	m := MustNewBlockCirculant(256, 128, 64).InitRandom(rng)
	x := randVec(rng, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TransMulVec(x)
	}
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
