package tensor

import (
	"fmt"
	"math"
)

// Add returns t + o element-wise. Shapes must match.
func (t *Tensor) Add(o *Tensor) *Tensor {
	t.mustMatch(o, "Add")
	out := New(t.shape...)
	for i := range t.Data {
		out.Data[i] = t.Data[i] + o.Data[i]
	}
	return out
}

// Sub returns t − o element-wise.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	t.mustMatch(o, "Sub")
	out := New(t.shape...)
	for i := range t.Data {
		out.Data[i] = t.Data[i] - o.Data[i]
	}
	return out
}

// Mul returns the Hadamard (element-wise) product t ∘ o.
func (t *Tensor) Mul(o *Tensor) *Tensor {
	t.mustMatch(o, "Mul")
	out := New(t.shape...)
	for i := range t.Data {
		out.Data[i] = t.Data[i] * o.Data[i]
	}
	return out
}

// Scale returns t·k.
func (t *Tensor) Scale(k float64) *Tensor {
	out := New(t.shape...)
	for i := range t.Data {
		out.Data[i] = t.Data[i] * k
	}
	return out
}

// AddInPlace accumulates o into t and returns t.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	t.mustMatch(o, "AddInPlace")
	for i := range t.Data {
		t.Data[i] += o.Data[i]
	}
	return t
}

// AxpyInPlace computes t += a·o in place and returns t (the SGD update
// primitive).
func (t *Tensor) AxpyInPlace(a float64, o *Tensor) *Tensor {
	t.mustMatch(o, "AxpyInPlace")
	for i := range t.Data {
		t.Data[i] += a * o.Data[i]
	}
	return t
}

// ScaleInPlace multiplies every element by k in place and returns t.
func (t *Tensor) ScaleInPlace(k float64) *Tensor {
	for i := range t.Data {
		t.Data[i] *= k
	}
	return t
}

// Apply returns a new tensor with f applied to every element.
func (t *Tensor) Apply(f func(float64) float64) *Tensor {
	out := New(t.shape...)
	for i := range t.Data {
		out.Data[i] = f(t.Data[i])
	}
	return out
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v
	}
	return s
}

// Max returns the maximum element; it panics on an empty tensor.
func (t *Tensor) Max() float64 {
	m := math.Inf(-1)
	for _, v := range t.Data {
		if v > m {
			m = v
		}
	}
	return m
}

// Argmax returns the flat index of the maximum element (first occurrence).
func (t *Tensor) Argmax() int {
	best, bi := math.Inf(-1), 0
	for i, v := range t.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// Norm2 returns the Euclidean norm of the flattened tensor.
func (t *Tensor) Norm2() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

func (t *Tensor) mustMatch(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, o.shape))
	}
}

// MatMul returns the matrix product a·b for 2-D tensors
// (a: m×k, b: k×n → m×n). The inner loop is ordered ikj over the flat
// backing arrays for cache-friendly streaming.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 operands")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimensions %d vs %d", k, k2))
	}
	out := New(m, n)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes a·b into dst, the allocation-free form of MatMul:
// dst must be a zeroed-or-overwritable m×n tensor and must not alias a or
// b. Returns dst.
//
//repro:noalloc
func MatMulInto(dst, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic("tensor: MatMulInto requires rank-2 operands")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulInto inner dimensions %d vs %d", k, k2))
	}
	if dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst %v, want [%d %d]", dst.shape, m, n))
	}
	matMul(dst.Data, a.Data, b.Data, m, k, n)
	return dst
}

// matMulGo is MatMulInto's arithmetic as Go loops, the reference the amd64
// kernel is held to and the path elsewhere: row by row, each output j is
// one sequential sum over p in p order, from +0, skipping every p whose
// input is ±0.
//
//repro:noalloc
func matMulGo(o, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := o[i*n : (i+1)*n]
		for j := range orow {
			orow[j] = 0
		}
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				orow[j] += av * brow[j]
			}
		}
	}
}

// MatVec returns the matrix–vector product a·x for a 2-D a (m×n) and a
// length-n vector, as a length-m vector.
func MatVec(a *Tensor, x []float64) []float64 {
	if a.Rank() != 2 {
		panic("tensor: MatVec requires a rank-2 matrix")
	}
	m, n := a.shape[0], a.shape[1]
	if len(x) != n {
		panic(fmt.Sprintf("tensor: MatVec length %d vs %d columns", len(x), n))
	}
	out := make([]float64, m)
	for i := 0; i < m; i++ {
		row := a.Data[i*n : (i+1)*n]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: Transpose2D requires a rank-2 tensor")
	}
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return out
}

// Row returns a view (shared backing) of row i of a 2-D tensor as a slice.
func (t *Tensor) Row(i int) []float64 {
	if t.Rank() != 2 {
		panic("tensor: Row requires a rank-2 tensor")
	}
	n := t.shape[1]
	return t.Data[i*n : (i+1)*n]
}
