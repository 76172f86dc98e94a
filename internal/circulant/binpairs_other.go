//go:build !amd64

package circulant

// pairBins runs nothing without bin-product kernels: the Go loops compute
// every column.
//
//repro:noalloc
func (m *BlockCirculant) pairBins(ws *BatchWorkspace, inBlks, outBlks, pitch, opitch int, trans bool, va, vb int) int {
	return 0
}
