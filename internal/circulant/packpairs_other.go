//go:build !amd64

package circulant

import "repro/internal/fft"

// packPairs packs nothing without the kernel: the Go loop packs every
// block.
//
//repro:noalloc
func (m *BlockCirculant) packPairs(z fft.SplitSlice, xv []float64, inBlks, pitch, col0 int) int {
	return 0
}

// storeColumns runs the Go loops.
//
//repro:noalloc
func storeColumns(seg, zRe, zIm []float64, pitch, col, cols int, bias []float64, relu bool) {
	storeColumnsGo(seg, zRe, zIm, pitch, col, cols, bias, relu)
}
