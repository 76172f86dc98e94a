package vector

// dot4Lanes is the SSE2 four-row kernel (dot_amd64.s): lanes[4j:4j+4] are
// Dot's four accumulator lanes for row j over the len(q)&^3 head, before
// the tail. The caller guarantees r holds 3*stride+len(q) elements.
//
//go:noescape
//repro:noalloc
func dot4Lanes(q, r []float32, stride int, lanes *[16]float32)

// dot4 scores q against the four rows r[j*stride:][:len(q)], j < 4, into
// out. Each out[j] is bit-identical to Dot(q, row j): the kernel keeps
// Dot's lanes, the tail folds into lane 0, and the lanes sum as
// (s0+s1)+(s2+s3).
//
//repro:noalloc
func dot4(q, r []float32, stride int, out *[4]float32) {
	r = r[:3*stride+len(q)]
	var lanes [16]float32
	dot4Lanes(q, r, stride, &lanes)
	head := len(q) &^ 3
	for j := range out {
		row := r[j*stride : j*stride+len(q)]
		s0 := lanes[4*j]
		for i := head; i < len(q); i++ {
			s0 += q[i] * row[i]
		}
		out[j] = (s0 + lanes[4*j+1]) + (lanes[4*j+2] + lanes[4*j+3])
	}
}
