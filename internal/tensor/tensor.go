// Package tensor provides the dense multi-dimensional array substrate used by
// the DNN framework. It plays the role OpenCV's Mat plays in the paper's
// software stack (Fig. 4): storage, element access, matrix products, the
// im2col/col2im reshaping of Fig. 3 and element-wise arithmetic.
//
// Tensors are row-major float64 arrays with explicit shapes. The hot numeric
// paths (MatMul, im2col) operate on the flat backing slice for speed.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, row-major multi-dimensional array of float64.
type Tensor struct {
	shape  []int
	stride []int
	Data   []float64
}

// New allocates a zero-filled tensor with the given shape. All dimensions
// must be positive; a scalar is New() with no arguments (one element).
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	t := &Tensor{shape: append([]int(nil), shape...), Data: make([]float64, n)}
	t.computeStrides()
	return t
}

// FromSlice wraps data (not copied) in a tensor of the given shape. The
// product of the dimensions must equal len(data).
func FromSlice(data []float64, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, data has %d", shape, n, len(data)))
	}
	t := &Tensor{shape: append([]int(nil), shape...), Data: data}
	t.computeStrides()
	return t
}

func (t *Tensor) computeStrides() {
	t.stride = make([]int, len(t.shape))
	s := 1
	for i := len(t.shape) - 1; i >= 0; i-- {
		t.stride[i] = s
		s *= t.shape[i]
	}
}

// Bind repoints t at data (not copied) with the given shape, reusing t's
// shape and stride storage: the allocation-free form of FromSlice for
// long-lived tensor headers on serving hot paths (a worker's input tensor,
// a workspace's activation views). The product of the dimensions must
// equal len(data). Returns t.
//
//repro:noalloc
func (t *Tensor) Bind(data []float64, shape ...int) *Tensor {
	// Copy into the header's persistent shape slice before validating:
	// referencing the variadic slice in the panic paths would make the
	// compiler heap-allocate it on every call, defeating the point.
	t.shape = append(t.shape[:0], shape...)
	n := 1
	for _, d := range t.shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, t.shape))
		}
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, data has %d", t.shape, n, len(data)))
	}
	t.Data = data
	t.rebindStrides()
	return t
}

// BindShapeOf is Bind with o's shape: len(data) must equal o.Len().
func (t *Tensor) BindShapeOf(data []float64, o *Tensor) *Tensor {
	if len(data) != o.Len() {
		panic(fmt.Sprintf("tensor: BindShapeOf shape %v needs %d elements, data has %d", o.shape, o.Len(), len(data)))
	}
	t.shape = append(t.shape[:0], o.shape...)
	t.Data = data
	t.rebindStrides()
	return t
}

// rebindStrides is computeStrides reusing the stride slice's capacity.
//
//repro:noalloc
func (t *Tensor) rebindStrides() {
	if cap(t.stride) < len(t.shape) {
		t.stride = make([]int, len(t.shape))
	} else {
		t.stride = t.stride[:len(t.shape)]
	}
	s := 1
	for i := len(t.shape) - 1; i >= 0; i-- {
		t.stride[i] = s
		s *= t.shape[i]
	}
}

// Shape returns a copy of the tensor's dimensions.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dim returns the size of dimension i.
//
//repro:noalloc
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of dimensions.
//
//repro:noalloc
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
//
//repro:noalloc
func (t *Tensor) Len() int { return len(t.Data) }

// offset converts a multi-index to a flat offset, bounds-checked.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, v := range idx {
		if v < 0 || v >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off += v * t.stride[i]
	}
	return off
}

// At returns the element at the multi-index idx.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set stores v at the multi-index idx.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of the same backing data with a new shape whose
// element count must match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	return FromSlice(t.Data, shape...)
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether every pair of corresponding elements differs by at
// most atol. Shapes must match exactly.
func (t *Tensor) AllClose(o *Tensor, atol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.Data {
		if math.Abs(t.Data[i]-o.Data[i]) > atol {
			return false
		}
	}
	return true
}

// Zero sets all elements to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets all elements to v in place.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// String renders shape plus (for small tensors) the data.
func (t *Tensor) String() string {
	if t.Len() <= 16 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.Data)
	}
	return fmt.Sprintf("Tensor%v[%d elements]", t.shape, t.Len())
}

// Randn fills the tensor with N(0, std²) samples from rng.
func (t *Tensor) Randn(rng *rand.Rand, std float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return t
}

// XavierInit fills the tensor with the Glorot-uniform distribution for a
// layer with the given fan-in and fan-out, the initialisation used for all
// trained layers in the reproduction.
func (t *Tensor) XavierInit(rng *rand.Rand, fanIn, fanOut int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range t.Data {
		t.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return t
}
