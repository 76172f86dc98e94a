package circulant

import "repro/internal/fft"

// The pack and store kernels (packpairs_amd64.s) move two columns per SSE2
// instruction between a vector's interleaved element pairs and the
// bin-major planes, the store with its epilogue computed by each lane in the
// Go loop's operations, so every element keeps its bits.

//go:noescape
//repro:noalloc
func packx2(zRe, zIm, x *float64, perm *int32, pitch, half, b, pairs int)

//go:noescape
//repro:noalloc
func storex2(seg, zRe, zIm *float64, pitch, h int)

//go:noescape
//repro:noalloc
func storeBiasx2(seg, zRe, zIm *float64, pitch, h int, bias *float64)

//go:noescape
//repro:noalloc
func storeBiasReLUx2(seg, zRe, zIm *float64, pitch, h int, bias *float64)

// packPairs packs the block pairs [0, 2·inBlks/2) of one exactly tiled
// vector (inBlks·b = len(xv), n = b) into columns col0 on and returns how
// many blocks it packed.
//
//repro:noalloc
func (m *BlockCirculant) packPairs(z fft.SplitSlice, xv []float64, inBlks, pitch, col0 int) int {
	pairs, half := inBlks/2, m.n/2
	if pairs == 0 || half == 0 {
		return 0
	}
	perm := m.rplan.Complex().BitReversal()
	packx2(&z.Re[col0], &z.Im[col0], &xv[0], &perm[0], pitch, half, m.block, pairs)
	return 2 * pairs
}

// storeColumns stores cols ∈ {1, 2} adjacent columns into seg, split into
// cols equal runs, with bias (nil, or as long as seg) and relu as
// storeColumn's; a pair of even-length runs takes the kernel.
//
//repro:noalloc
func storeColumns(seg, zRe, zIm []float64, pitch, col, cols int, bias []float64, relu bool) {
	if cols != 2 || len(seg)%4 != 0 || len(seg) == 0 {
		storeColumnsGo(seg, zRe, zIm, pitch, col, cols, bias, relu)
		return
	}
	h := len(seg) / 4
	switch {
	case bias == nil:
		storex2(&seg[0], &zRe[col], &zIm[col], pitch, h)
	case relu:
		storeBiasReLUx2(&seg[0], &zRe[col], &zIm[col], pitch, h, &bias[0])
	default:
		storeBiasx2(&seg[0], &zRe[col], &zIm[col], pitch, h, &bias[0])
	}
}
