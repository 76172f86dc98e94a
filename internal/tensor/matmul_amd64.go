package tensor

// The dense kernel (matmul_amd64.s) runs matMulGo's arithmetic over one
// row and a run of at most matMulChunk of its inputs: it lists the p whose
// input is not ±0 without a branch, then sweeps that list once per tile of
// up to sixteen output columns held in XMM accumulators, two columns per
// register, each lane with the Go loop's expression tree — so each output
// gets the Go loop's bits, and the skip follows no data-dependent branch.

// matMulChunk is how many inputs of a row one kernel call lists; the list
// lives on matMul's stack.
const matMulChunk = 256

//go:noescape
//repro:noalloc
func matMulRowx2(orow, arow, b *float64, idx *int, k, n int)

// matMul zeroes each output row, then adds the row's inputs into it chunk
// by chunk, in p order.
//
//repro:noalloc
func matMul(o, a, b []float64, m, k, n int) {
	if n == 0 {
		return
	}
	var idx [matMulChunk]int
	for i := 0; i < m; i++ {
		arow, orow := a[i*k:(i+1)*k], o[i*n:(i+1)*n]
		for j := range orow {
			orow[j] = 0
		}
		for p0 := 0; p0 < k; p0 += matMulChunk {
			matMulRowx2(&orow[0], &arow[p0], &b[p0*n], &idx[0], min(matMulChunk, k-p0), n)
		}
	}
}
