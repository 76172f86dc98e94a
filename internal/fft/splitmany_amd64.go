package fft

// The column-pair kernels (splitmany_amd64.s) run splitmany.go's row sweeps
// for n ≥ 8 over a span of whole column pairs, two columns per SSE2
// instruction, with each lane performing its column's Go expression tree
// exactly; a span's odd last column is left to the Go loops. Each entry point
// below returns the end of the span it ran, m0 when it ran nothing.

//go:noescape
//repro:noalloc
func head8x2(re, im *float64, stride, n, pairs int, sign, w1r, w1i, w3r, w3i float64)

//go:noescape
//repro:noalloc
func pair4x2(re, im *float64, stride, groups, h, pairs int, war, wai, wbr, wbi *float64)

//go:noescape
//repro:noalloc
func radix2x2(re, im *float64, stride, half, pairs int, wr, wi *float64)

//go:noescape
//repro:noalloc
func unpackx2(sRe, sIm, zRe, zIm *float64, stride, h, pairs int, wr, wi *float64)

//go:noescape
//repro:noalloc
func preInversex2(zRe, zIm, sRe, sIm *float64, stride, h, pairs int, wr, wi *float64, perm *int32)

// transformPairs runs every stage of transformSplitMany (n ≥ 8) over the
// column pairs of [m0, m1), in the Go path's schedule: the radix-8 head, the
// fused stage pairs, and a trailing radix-2 stage when one is left over.
//
//repro:noalloc
func (p *Plan) transformPairs(re, im []float64, stride, m0, m1 int, stages []SplitSlice, sign float64) int {
	n, pairs := p.n, (m1-m0)/2
	if n < 8 || pairs == 0 {
		return m0
	}
	r, i := &re[m0], &im[m0]
	w8 := stages[1]
	head8x2(r, i, stride, n, pairs, sign, w8.Re[1], w8.Im[1], w8.Re[3], w8.Im[3])
	s := 2
	for ; s+1 < len(stages); s += 2 {
		h := 2 << s
		wa, wb := stages[s], stages[s+1]
		pair4x2(r, i, stride, n/(4*h), h, pairs, &wa.Re[0], &wa.Im[0], &wb.Re[0], &wb.Im[0])
	}
	if s < len(stages) {
		radix2x2(r, i, stride, n/2, pairs, &stages[s].Re[0], &stages[s].Im[0])
	}
	return m0 + 2*pairs
}

// unpackPairs runs UnpackSplitMany's rows 1 … h−1 over the column pairs of
// [m0, m1).
//
//repro:noalloc
func (rp *RealPlan) unpackPairs(spec, zf SplitSlice, stride, m0, m1 int) int {
	h, pairs := rp.half, (m1-m0)/2
	if h < 2 || pairs == 0 {
		return m0
	}
	unpackx2(&spec.Re[m0], &spec.Im[m0], &zf.Re[m0], &zf.Im[m0], stride, h, pairs, &rp.wRe[0], &rp.wIm[0])
	return m0 + 2*pairs
}

// preInversePairs runs PreInverseSplitManyRev over the column pairs of
// [m0, m1).
//
//repro:noalloc
func (rp *RealPlan) preInversePairs(z, spec SplitSlice, stride, m0, m1 int) int {
	pairs := (m1 - m0) / 2
	if pairs == 0 {
		return m0
	}
	preInversex2(&z.Re[m0], &z.Im[m0], &spec.Re[m0], &spec.Im[m0], stride, rp.half, pairs, &rp.wiRe[0], &rp.wiIm[0], &rp.cplx.perm[0])
	return m0 + 2*pairs
}
