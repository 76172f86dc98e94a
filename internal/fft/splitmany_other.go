//go:build !amd64

package fft

// Without column-pair kernels the Go loops run every column: each entry
// point runs nothing and returns m0.

//repro:noalloc
func (p *Plan) transformPairs(re, im []float64, stride, m0, m1 int, stages []SplitSlice, sign float64) int {
	return m0
}

//repro:noalloc
func (rp *RealPlan) unpackPairs(spec, zf SplitSlice, stride, m0, m1 int) int { return m0 }

//repro:noalloc
func (rp *RealPlan) preInversePairs(z, spec SplitSlice, stride, m0, m1 int) int { return m0 }
