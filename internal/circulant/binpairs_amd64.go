package circulant

// The bin-product kernels (binpairs_amd64.s) run outputColumns' product for
// bins 1 … half−1 over whole vectors, two output blocks per SSE2 register,
// each lane with the Go loop's expression tree: binTransx2 the correlation
// form, binConvx2 the convolution form.

//go:noescape
//repro:noalloc
func binTransx2(accRe, accIm, wRe, wIm, xRe, xIm *float64, rows, vecs, inBlks, outBlks, pitch, opitch, kl, k int)

//go:noescape
//repro:noalloc
func binConvx2(accRe, accIm, wRe, wIm, xRe, xIm *float64, rows, vecs, inBlks, outBlks, pitch, opitch, kl, k int)

// pairBins runs the bin product of bins 1 … half−1 for output blocks
// [0, 2·outBlks/2) of the vectors [va, vb) and returns how many block pairs
// per vector it ran: outBlks/2, or 0 when it ran nothing.
//
//repro:noalloc
func (m *BlockCirculant) pairBins(ws *BatchWorkspace, inBlks, outBlks, pitch, opitch int, trans bool, va, vb int) int {
	half, pairs := m.n/2, outBlks/2
	if half < 2 || pairs == 0 || va >= vb {
		return 0
	}
	kl, a, x := m.k*m.l, opitch+va*outBlks, pitch+va*inBlks
	if trans {
		binTransx2(&ws.acc.Re[a], &ws.acc.Im[a], &m.wspec.Re[kl], &m.wspec.Im[kl], &ws.specs.Re[x], &ws.specs.Im[x],
			half-1, vb-va, inBlks, outBlks, pitch, opitch, kl, m.k)
	} else {
		binConvx2(&ws.acc.Re[a], &ws.acc.Im[a], &m.wspec.Re[kl], &m.wspec.Im[kl], &ws.specs.Re[x], &ws.specs.Im[x],
			half-1, vb-va, inBlks, outBlks, pitch, opitch, kl, m.k)
	}
	return pairs
}
