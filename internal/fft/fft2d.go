package fft

// FFT2 computes the 2-D DFT of a rows×cols matrix stored row-major in x,
// by transforming rows then columns. Any positive dimensions are accepted
// (non power-of-two sizes use Bluestein). The input is not modified.
func FFT2(x []complex128, rows, cols int) []complex128 {
	return transform2(x, rows, cols, false)
}

// IFFT2 computes the inverse 2-D DFT (with 1/(rows·cols) normalisation).
func IFFT2(x []complex128, rows, cols int) []complex128 {
	return transform2(x, rows, cols, true)
}

func transform2(x []complex128, rows, cols int, inverse bool) []complex128 {
	if rows*cols != len(x) {
		panic("fft: FFT2 dimensions do not match data length")
	}
	out := make([]complex128, len(x))
	copy(out, x)
	if rows == 0 || cols == 0 {
		return out
	}
	do := func(v []complex128) []complex128 {
		if inverse {
			return IFFT(v)
		}
		return FFT(v)
	}
	// Rows.
	for r := 0; r < rows; r++ {
		copy(out[r*cols:(r+1)*cols], do(out[r*cols:(r+1)*cols]))
	}
	// Columns.
	col := make([]complex128, rows)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			col[r] = out[r*cols+c]
		}
		tc := do(col)
		for r := 0; r < rows; r++ {
			out[r*cols+c] = tc[r]
		}
	}
	return out
}

// Plan2D holds the row and column plans for 2-D transforms of one fixed
// power-of-two rows×cols shape, plus nothing else: like Plan it is immutable
// and safe for concurrent use, with per-call scratch owned by the caller.
// FFT2/IFFT2 remain the allocating any-size entry points; Plan2D is the hot
// path for layers that transform the same padded plane on every forward
// pass (FFTConv2D).
type Plan2D struct {
	rows, cols int
	rowPlan    *Plan // length-cols transforms, one per row
	colPlan    *Plan // length-rows transforms, one per column
}

// NewPlan2D creates a 2-D transform plan. Both dimensions must be positive
// powers of two.
func NewPlan2D(rows, cols int) (*Plan2D, error) {
	rowPlan, err := NewPlan(cols)
	if err != nil {
		return nil, err
	}
	colPlan, err := NewPlan(rows)
	if err != nil {
		return nil, err
	}
	return &Plan2D{rows: rows, cols: cols, rowPlan: rowPlan, colPlan: colPlan}, nil
}

// Dims returns the planned (rows, cols) shape.
func (p *Plan2D) Dims() (rows, cols int) { return p.rows, p.cols }

// Forward computes the 2-D DFT of src into dst (row-major rows×cols, may
// alias src), using col (length rows) as column-gather scratch. The
// row-then-column schedule matches FFT2 exactly, so results are
// bit-identical to the unplanned path.
func (p *Plan2D) Forward(dst, src []complex128, col []complex128) {
	p.transform(dst, src, col, false)
}

// Inverse computes the inverse 2-D DFT (with 1/(rows·cols) normalisation)
// of src into dst, using col (length rows) as scratch. dst may alias src.
func (p *Plan2D) Inverse(dst, src []complex128, col []complex128) {
	p.transform(dst, src, col, true)
}

func (p *Plan2D) transform(dst, src, col []complex128, inverse bool) {
	n := p.rows * p.cols
	if len(dst) != n || len(src) != n || len(col) != p.rows {
		panic("fft: Plan2D transform buffer sizes do not match plan")
	}
	do := func(d, s []complex128, plan *Plan) {
		if inverse {
			plan.Inverse(d, s)
		} else {
			plan.Forward(d, s)
		}
	}
	for r := 0; r < p.rows; r++ {
		do(dst[r*p.cols:(r+1)*p.cols], src[r*p.cols:(r+1)*p.cols], p.rowPlan)
	}
	for c := 0; c < p.cols; c++ {
		for r := 0; r < p.rows; r++ {
			col[r] = dst[r*p.cols+c]
		}
		do(col, col, p.colPlan)
		for r := 0; r < p.rows; r++ {
			dst[r*p.cols+c] = col[r]
		}
	}
}
