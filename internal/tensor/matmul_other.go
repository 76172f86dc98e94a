//go:build !amd64

package tensor

// matMul runs the Go loops.
//
//repro:noalloc
func matMul(o, a, b []float64, m, k, n int) { matMulGo(o, a, b, m, k, n) }
