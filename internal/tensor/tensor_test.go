package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccess(t *testing.T) {
	a := New(2, 3)
	if a.Len() != 6 || a.Rank() != 2 || a.Dim(0) != 2 || a.Dim(1) != 3 {
		t.Fatalf("bad metadata: %v", a)
	}
	a.Set(7, 1, 2)
	if a.At(1, 2) != 7 {
		t.Errorf("At(1,2) = %g, want 7", a.At(1, 2))
	}
	if a.Data[5] != 7 {
		t.Errorf("row-major layout violated: Data[5] = %g", a.Data[5])
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-positive dimension")
		}
	}()
	New(2, 0)
}

func TestFromSliceValidatesLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for mismatched length")
		}
	}()
	FromSlice([]float64{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(99, 0, 1)
	if a.At(0, 1) != 99 {
		t.Error("Reshape should share backing data")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := FromSlice([]float64{1, 2}, 2)
	b := a.Clone()
	b.Data[0] = 42
	if a.Data[0] != 1 {
		t.Error("Clone should not share data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float64{5, 6, 7, 8}, 2, 2)
	if got := a.Add(b).Data; got[0] != 6 || got[3] != 12 {
		t.Errorf("Add wrong: %v", got)
	}
	if got := b.Sub(a).Data; got[0] != 4 || got[3] != 4 {
		t.Errorf("Sub wrong: %v", got)
	}
	if got := a.Mul(b).Data; got[1] != 12 || got[2] != 21 {
		t.Errorf("Mul wrong: %v", got)
	}
	if got := a.Scale(3).Data; got[3] != 12 {
		t.Errorf("Scale wrong: %v", got)
	}
	c := a.Clone()
	c.AxpyInPlace(2, b)
	if c.Data[0] != 11 || c.Data[3] != 20 {
		t.Errorf("Axpy wrong: %v", c.Data)
	}
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float64{3, -1, 7, 2}, 4)
	if a.Sum() != 11 {
		t.Errorf("Sum = %g", a.Sum())
	}
	if a.Max() != 7 {
		t.Errorf("Max = %g", a.Max())
	}
	if a.Argmax() != 2 {
		t.Errorf("Argmax = %d", a.Argmax())
	}
	if math.Abs(a.Norm2()-math.Sqrt(63)) > 1e-12 {
		t.Errorf("Norm2 = %g", a.Norm2())
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := FromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !got.AllClose(want, 1e-12) {
		t.Errorf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, k, n := 13, 17, 11
	a := New(m, k).Randn(rng, 1)
	b := New(k, n).Randn(rng, 1)
	got := MatMul(a, b)
	want := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			want.Set(s, i, j)
		}
	}
	if !got.AllClose(want, 1e-10) {
		t.Error("MatMul differs from naive triple loop")
	}
}

func TestMatVec(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	got := MatVec(a, []float64{1, 0, -1})
	if got[0] != -2 || got[1] != -2 {
		t.Errorf("MatVec = %v", got)
	}
}

func TestTranspose2D(t *testing.T) {
	a := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose2D(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 || at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Errorf("Transpose2D wrong: %v", at)
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(10), 1+r.Intn(10)
		a := New(m, n).Randn(r, 1)
		return Transpose2D(Transpose2D(a)).AllClose(a, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMatMulTransposeProperty(t *testing.T) {
	// (A·B)ᵀ = Bᵀ·Aᵀ
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := New(m, k).Randn(r, 1)
		b := New(k, n).Randn(r, 1)
		lhs := Transpose2D(MatMul(a, b))
		rhs := MatMul(Transpose2D(b), Transpose2D(a))
		return lhs.AllClose(rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestIm2ColMatchesDirectConv(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []Conv2DGeom{
		{H: 8, W: 8, C: 3, R: 3, P: 4, Stride: 1, Pad: 0},
		{H: 7, W: 9, C: 2, R: 3, P: 5, Stride: 1, Pad: 1},
		{H: 10, W: 10, C: 4, R: 5, P: 2, Stride: 2, Pad: 2},
		{H: 5, W: 5, C: 1, R: 1, P: 3, Stride: 1, Pad: 0},
	}
	for _, g := range cases {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
		img := New(g.H, g.W, g.C).Randn(rng, 1)
		filt := New(g.R, g.R, g.C, g.P).Randn(rng, 1)
		want := Conv2DDirect(img, filt, g)
		x := Im2Col(img, g)
		f := FilterToMatrix(filt, g)
		y := MatMul(x, f).Reshape(g.OutH(), g.OutW(), g.P)
		if !y.AllClose(want, 1e-9) {
			t.Errorf("geometry %+v: im2col conv differs from direct conv", g)
		}
	}
}

func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	// <Im2Col(x), y> == <x, Col2Im(y)> for all x, y — the defining property
	// of the adjoint, which is exactly what backprop requires.
	rng := rand.New(rand.NewSource(3))
	g := Conv2DGeom{H: 6, W: 7, C: 2, R: 3, P: 1, Stride: 1, Pad: 1}
	x := New(g.H, g.W, g.C).Randn(rng, 1)
	y := New(g.OutH()*g.OutW(), g.C*g.R*g.R).Randn(rng, 1)
	lhs := Im2Col(x, g).Mul(y).Sum()
	rhs := x.Mul(Col2Im(y, g)).Sum()
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Errorf("adjoint property violated: %g vs %g", lhs, rhs)
	}
}

func TestFilterMatrixRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := Conv2DGeom{H: 8, W: 8, C: 3, R: 3, P: 4, Stride: 1, Pad: 0}
	f := New(g.R, g.R, g.C, g.P).Randn(rng, 1)
	back := MatrixToFilter(FilterToMatrix(f, g), g)
	if !back.AllClose(f, 0) {
		t.Error("MatrixToFilter(FilterToMatrix(f)) != f")
	}
}

func TestConvGeomValidate(t *testing.T) {
	bad := []Conv2DGeom{
		{H: 0, W: 5, C: 1, R: 3, P: 1, Stride: 1},
		{H: 5, W: 5, C: 1, R: 0, P: 1, Stride: 1},
		{H: 5, W: 5, C: 1, R: 3, P: 1, Stride: 0},
		{H: 5, W: 5, C: 1, R: 3, P: 1, Stride: 1, Pad: -1},
		{H: 2, W: 2, C: 1, R: 5, P: 1, Stride: 1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, g)
		}
	}
}

func TestXavierInitWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := New(50, 50).XavierInit(rng, 50, 50)
	limit := math.Sqrt(6.0 / 100)
	for _, v := range a.Data {
		if math.Abs(v) > limit {
			t.Fatalf("Xavier sample %g outside ±%g", v, limit)
		}
	}
}

func BenchmarkMatMul(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := New(128, 128).Randn(rng, 1)
	c := New(128, 128).Randn(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, c)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := Conv2DGeom{H: 32, W: 32, C: 64, R: 3, P: 64, Stride: 1, Pad: 0}
	img := New(g.H, g.W, g.C).Randn(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(img, g)
	}
}
