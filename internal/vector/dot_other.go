//go:build !amd64

package vector

// dot4 scores q against the four rows r[j*stride:][:len(q)], j < 4, into
// out: four Dot calls, so each out[j] is Dot's bits by construction.
//
//repro:noalloc
func dot4(q, r []float32, stride int, out *[4]float32) {
	for j := range out {
		out[j] = Dot(q, r[j*stride:j*stride+len(q)])
	}
}
