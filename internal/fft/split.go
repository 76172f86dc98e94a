package fft

import "fmt"

// Split-complex (structure-of-arrays) transforms: the same planned radix-2
// kernels as Forward/Inverse, but over parallel real and imaginary float64
// slices instead of interleaved []complex128.
//
// The AoS complex128 layout forces every butterfly to move 16-byte
// re/im pairs through the registers together, which defeats wide loads and
// keeps the compiler from turning the inner loop into straight-line float
// arithmetic. The SoA layout below is the memory discipline of
// high-performance FFT libraries: two dense float64 streams, branch-free
// butterflies with the twiddle tables themselves stored split
// (Plan.twRe/twIm), so the hot loop is pure float64 multiply-adds at unit
// stride. The circulant engine runs entirely on this representation, through
// the bin-major Many kernels of splitmany.go; the complex128 Plan.Forward/
// Inverse remain for training's per-block gradient transforms, the
// any-size FFT/IFFT entry points and Bluestein, and as the reference the
// split kernels are held bit-identical to.

// SplitSlice is a complex vector in split (planar) form: element k is
// Re[k] + i·Im[k]. The two slices must have equal length. The zero value is
// an empty vector; grow one with NewSplit or Resize.
type SplitSlice struct {
	Re, Im []float64
}

// NewSplit allocates a zero-filled split vector of length n.
func NewSplit(n int) SplitSlice {
	return SplitSlice{Re: make([]float64, n), Im: make([]float64, n)}
}

// Len returns the vector length.
//
//repro:noalloc
func (s SplitSlice) Len() int { return len(s.Re) }

// Resize returns a split vector of length n, reusing the receiver's storage
// when it has the capacity (contents are then unspecified). The idiom for
// caller-owned scratch that grows to the largest transform it has served.
//
//repro:noalloc
func (s SplitSlice) Resize(n int) SplitSlice {
	if cap(s.Re) < n || cap(s.Im) < n {
		return NewSplit(n)
	}
	return SplitSlice{Re: s.Re[:n], Im: s.Im[:n]}
}

// Zero clears the vector.
//
//repro:noalloc
func (s SplitSlice) Zero() {
	for i := range s.Re {
		s.Re[i] = 0
	}
	for i := range s.Im {
		s.Im[i] = 0
	}
}

// CopyTo interleaves the split vector into dst (len = s.Len()).
func (s SplitSlice) CopyTo(dst []complex128) {
	if len(dst) != len(s.Re) {
		panic(fmt.Sprintf("fft: SplitSlice.CopyTo dst %d, want %d", len(dst), len(s.Re)))
	}
	for i := range dst {
		dst[i] = complex(s.Re[i], s.Im[i])
	}
}

// CopyFrom de-interleaves src (len = s.Len()) into the split vector.
func (s SplitSlice) CopyFrom(src []complex128) {
	if len(src) != len(s.Re) {
		panic(fmt.Sprintf("fft: SplitSlice.CopyFrom src %d, want %d", len(src), len(s.Re)))
	}
	for i, v := range src {
		s.Re[i] = real(v)
		s.Im[i] = imag(v)
	}
}

// ForwardSplit computes the DFT of src into dst in split form. Both vectors
// must have length p.Size(); dst may share storage with src for an in-place
// transform. It is the SoA counterpart of Forward and computes bit-identical
// results (same butterfly order, same twiddle values).
//
//repro:noalloc
func (p *Plan) ForwardSplit(dst, src SplitSlice) { p.transformSplit(dst, src, false) }

// InverseSplit computes the inverse DFT (with the 1/n factor) of src into
// dst in split form. dst may share storage with src.
//
//repro:noalloc
func (p *Plan) InverseSplit(dst, src SplitSlice) { p.transformSplit(dst, src, true) }

//repro:noalloc
func (p *Plan) transformSplit(dst, src SplitSlice, inverse bool) {
	n := p.n
	if dst.Len() != n || src.Len() != n || len(dst.Im) != n || len(src.Im) != n {
		panic(fmt.Sprintf("fft: plan size %d, split dst %d/%d, src %d/%d",
			n, len(dst.Re), len(dst.Im), len(src.Re), len(src.Im)))
	}
	dre, dim := dst.Re, dst.Im
	// Bit-reversal reorder, swapping in place when dst aliases src.
	if &dre[0] == &src.Re[0] {
		for i, j := range p.perm {
			if i < int(j) {
				dre[i], dre[j] = dre[j], dre[i]
				dim[i], dim[j] = dim[j], dim[i]
			}
		}
	} else {
		sre, sim := src.Re, src.Im
		for i, j := range p.perm {
			dre[i] = sre[j]
			dim[i] = sim[j]
		}
	}
	// Iterative decimation-in-time butterflies over the two planes, with
	// two memory-traffic optimisations the interleaved complex128 path
	// cannot express:
	//
	//   - The first two stages (twiddles 1 and −i, both multiply-free) are
	//     fused into one 4-point pass that keeps its operands in registers.
	//   - Remaining stages run in fused pairs: each pass loads four points,
	//     applies both stages' butterflies in registers, and stores once —
	//     halving the load/store sweeps over the data relative to
	//     stage-at-a-time execution.
	//
	// The arithmetic (operation order, twiddle values — read from the same
	// per-stage tables derived from tw) is exactly that of the sequential
	// radix-2 schedule, so results remain bit-identical to Forward/Inverse.
	sign := 1.0 // sign of the −i twiddle in the fused first pass
	if inverse {
		sign = -1.0
	}
	switch {
	case n == 2:
		ar, ai := dre[0], dim[0]
		br, bi := dre[1], dim[1]
		dre[0], dim[0] = ar+br, ai+bi
		dre[1], dim[1] = ar-br, ai-bi
	case n >= 4:
		// Fused stages 1+2: on each 4-block, stage 1 pairs (0,1) and (2,3)
		// with twiddle 1; stage 2 pairs (0,2) with twiddle 1 and (1,3)
		// with twiddle ∓i (forward: −i, so b·w = (im, −re)).
		for k := 0; k+3 < n; k += 4 {
			a0r, a0i := dre[k], dim[k]
			a1r, a1i := dre[k+1], dim[k+1]
			a2r, a2i := dre[k+2], dim[k+2]
			a3r, a3i := dre[k+3], dim[k+3]
			s0r, s0i := a0r+a1r, a0i+a1i
			d0r, d0i := a0r-a1r, a0i-a1i
			s1r, s1i := a2r+a3r, a2i+a3i
			d1r, d1i := a2r-a3r, a2i-a3i
			// Stage 2: d1·(∓i) = (±d1i, ∓d1r).
			t1r, t1i := sign*d1i, -sign*d1r
			dre[k], dim[k] = s0r+s1r, s0i+s1i
			dre[k+2], dim[k+2] = s0r-s1r, s0i-s1i
			dre[k+1], dim[k+1] = d0r+t1r, d0i+t1i
			dre[k+3], dim[k+3] = d0r-t1r, d0i-t1i
		}
	}
	stages := p.stageTw
	if inverse {
		stages = p.stageTwInv
	}
	// Fused pairs of the remaining stages (s covers widths 8·4^s and
	// 16·4^s); a trailing unpaired stage runs alone.
	s := 1 // stages[0] (width 4) was fused into the head pass
	for ; s+1 < len(stages); s += 2 {
		sizeA := 4 << s // first stage's butterfly width
		h := sizeA >> 1
		wa := stages[s]
		wb := stages[s+1]
		war, wai := wa.Re[:h], wa.Im[:h]
		wbr, wbi := wb.Re[:2*h], wb.Im[:2*h]
		for start := 0; start+4*h <= n; start += 4 * h {
			q0r := dre[start : start+h : start+h]
			q0i := dim[start : start+h : start+h]
			q1r := dre[start+h : start+2*h : start+2*h]
			q1i := dim[start+h : start+2*h : start+2*h]
			q2r := dre[start+2*h : start+3*h : start+3*h]
			q2i := dim[start+2*h : start+3*h : start+3*h]
			q3r := dre[start+3*h : start+4*h : start+4*h]
			q3i := dim[start+3*h : start+4*h : start+4*h]
			for k := 0; k < h; k++ {
				w1r, w1i := war[k], wai[k]
				w2r, w2i := wbr[k], wbi[k]
				w3r, w3i := wbr[k+h], wbi[k+h]
				// Stage A on (q0,q1) and (q2,q3), twiddle w1 each.
				x1r, x1i := q1r[k], q1i[k]
				b1r := x1r*w1r - x1i*w1i
				b1i := x1r*w1i + x1i*w1r
				a0r, a0i := q0r[k], q0i[k]
				u0r, u0i := a0r+b1r, a0i+b1i
				u1r, u1i := a0r-b1r, a0i-b1i
				x3r, x3i := q3r[k], q3i[k]
				b3r := x3r*w1r - x3i*w1i
				b3i := x3r*w1i + x3i*w1r
				a2r, a2i := q2r[k], q2i[k]
				u2r, u2i := a2r+b3r, a2i+b3i
				u3r, u3i := a2r-b3r, a2i-b3i
				// Stage B on (u0,u2) with w2 and (u1,u3) with w3.
				c2r := u2r*w2r - u2i*w2i
				c2i := u2r*w2i + u2i*w2r
				q0r[k], q0i[k] = u0r+c2r, u0i+c2i
				q2r[k], q2i[k] = u0r-c2r, u0i-c2i
				c3r := u3r*w3r - u3i*w3i
				c3i := u3r*w3i + u3i*w3r
				q1r[k], q1i[k] = u1r+c3r, u1i+c3i
				q3r[k], q3i[k] = u1r-c3r, u1i-c3i
			}
		}
	}
	// Trailing unpaired stage, if the stage count past the head is odd.
	for ; s < len(stages); s++ {
		size := 4 << s
		half := size >> 1
		st := stages[s]
		swr, swi := st.Re, st.Im
		for start := 0; start+size <= n; start += size {
			lr := dre[start : start+half : start+half]
			li := dim[start : start+half : start+half]
			hr := dre[start+half : start+size : start+size]
			hi := dim[start+half : start+size : start+size]
			for k := 0; k < half && k < len(swr) && k < len(swi); k++ {
				wr, wi := swr[k], swi[k]
				xr, xi := hr[k], hi[k]
				br := xr*wr - xi*wi
				bi := xr*wi + xi*wr
				ar, ai := lr[k], li[k]
				lr[k], li[k] = ar+br, ai+bi
				hr[k], hi[k] = ar-br, ai-bi
			}
		}
	}
	if inverse {
		inv := 1 / float64(n)
		for i := range dre {
			dre[i] *= inv
		}
		for i := range dim {
			dim[i] *= inv
		}
	}
}

// splitTables precomputes the split per-stage twiddle tables on a Plan;
// called from NewPlan so every plan (cached or not) carries both
// representations. Stage s (butterfly width 4·2^s) gets its factors
// e^{-2πi·k/size}, k ∈ [0, size/2), stored contiguously — the values are
// copied from the complex table (tw[k·step] with step = n/size), never
// recomputed, so the split transform stays bit-identical to the complex
// one. Total extra storage is ~2n float64 per direction.
func (p *Plan) splitTables() {
	for size := 4; size <= p.n; size <<= 1 {
		half := size >> 1
		step := p.n / size
		fwd, inv := NewSplit(half), NewSplit(half)
		for k := 0; k < half; k++ {
			fwd.Re[k], fwd.Im[k] = real(p.tw[k*step]), imag(p.tw[k*step])
			inv.Re[k], inv.Im[k] = real(p.twInv[k*step]), imag(p.twInv[k*step])
		}
		p.stageTw = append(p.stageTw, fwd)
		p.stageTwInv = append(p.stageTwInv, inv)
	}
}

// ForwardSplit computes the half spectrum (length n/2+1) of the real
// sequence x into spec, using z (length n/2) as scratch, entirely in split
// form: the planar counterpart of ForwardInto.
//
//repro:noalloc
func (rp *RealPlan) ForwardSplit(spec SplitSlice, x []float64, z SplitSlice) {
	rp.PackSplit(z, x)
	rp.cplx.ForwardSplit(z, z)
	rp.UnpackSplit(spec, z)
}

// InverseSplit recovers the real sequence x (length ≤ n) from its split
// half spectrum spec, using z (length n/2) as scratch. spec is not
// modified.
//
//repro:noalloc
func (rp *RealPlan) InverseSplit(x []float64, spec, z SplitSlice) {
	rp.PreInverseSplit(z, spec)
	rp.cplx.InverseSplit(z, z)
	rp.PostInverseSplit(x, z)
}

// PackSplit folds the real sequence x into the length-n/2 split sequence
// z[j] = x[2j] + i·x[2j+1]; missing tail entries are treated as zero. In
// split form the "interleave" is two independent strided gathers, one per
// plane.
//
//repro:noalloc
func (rp *RealPlan) PackSplit(z SplitSlice, x []float64) {
	if z.Len() != rp.half || len(x) > rp.n {
		panic(fmt.Sprintf("fft: RealPlan(%d).PackSplit z %d, x %d", rp.n, z.Len(), len(x)))
	}
	zr, zi := z.Re, z.Im
	if len(x) == rp.n { // full block: branch-free de-interleave
		for j := range zr {
			zr[j] = x[2*j]
			zi[j] = x[2*j+1]
		}
		return
	}
	j := 0
	for ; 2*j+1 < len(x); j++ {
		zr[j] = x[2*j]
		zi[j] = x[2*j+1]
	}
	if 2*j < len(x) {
		zr[j], zi[j] = x[2*j], 0
		j++
	}
	for ; j < rp.half; j++ {
		zr[j], zi[j] = 0, 0
	}
}

// UnpackSplit untangles the transformed packed sequence zf (length n/2)
// into the split half spectrum spec (length n/2+1): the planar counterpart
// of Unpack, same explicit real arithmetic.
//
//repro:noalloc
func (rp *RealPlan) UnpackSplit(spec, zf SplitSlice) {
	h := rp.half
	if spec.Len() != h+1 || zf.Len() != h {
		panic(fmt.Sprintf("fft: RealPlan(%d).UnpackSplit spec %d, zf %d", rp.n, spec.Len(), zf.Len()))
	}
	sr, si := spec.Re, spec.Im
	zr, zi := zf.Re, zf.Im
	z0r, z0i := zr[0], zi[0]
	sr[0], si[0] = z0r+z0i, 0
	sr[h], si[h] = z0r-z0i, 0
	wRe, wIm := rp.wRe, rp.wIm
	for k := 1; k < h; k++ {
		zkr, zki := zr[k], zi[k]
		zrr, zri := zr[h-k], zi[h-k]
		feRe := 0.5 * (zkr + zrr)
		feIm := 0.5 * (zki - zri)
		foRe := 0.5 * (zki + zri)
		foIm := 0.5 * (zrr - zkr)
		wr, wi := wRe[k], wIm[k]
		sr[k] = feRe + wr*foRe - wi*foIm
		si[k] = feIm + wr*foIm + wi*foRe
	}
}

// PreInverseSplit converts the split half spectrum spec (length n/2+1) into
// the packed split sequence z (length n/2) whose half-size inverse
// transform interleaves the real output: the planar counterpart of
// PreInverse.
//
//repro:noalloc
func (rp *RealPlan) PreInverseSplit(z, spec SplitSlice) {
	h := rp.half
	if z.Len() != h || spec.Len() != h+1 {
		panic(fmt.Sprintf("fft: RealPlan(%d).PreInverseSplit z %d, spec %d", rp.n, z.Len(), spec.Len()))
	}
	zr, zi := z.Re, z.Im
	sr, si := spec.Re, spec.Im
	wiRe, wiIm := rp.wiRe, rp.wiIm
	for k := 0; k < h; k++ {
		skr, ski := sr[k], si[k]
		srr, sri := sr[h-k], si[h-k]
		xeRe := 0.5 * (skr + srr)
		xeIm := 0.5 * (ski - sri)
		dRe := 0.5 * (skr - srr)
		dIm := 0.5 * (ski + sri)
		wr, wi := wiRe[k], wiIm[k]
		xoRe := dRe*wr - dIm*wi
		xoIm := dRe*wi + dIm*wr
		zr[k] = xeRe - xoIm
		zi[k] = xeIm + xoRe
	}
}

// PostInverseSplit de-interleaves the inverse-transformed packed split
// sequence zt into the real output x, which may be shorter than n
// (truncated tail block).
//
//repro:noalloc
func (rp *RealPlan) PostInverseSplit(x []float64, zt SplitSlice) {
	if zt.Len() != rp.half || len(x) > rp.n {
		panic(fmt.Sprintf("fft: RealPlan(%d).PostInverseSplit x %d, zt %d", rp.n, len(x), zt.Len()))
	}
	zr, zi := zt.Re, zt.Im
	if len(x) == rp.n { // full block: branch-free interleave
		for j := range zr {
			x[2*j] = zr[j]
			x[2*j+1] = zi[j]
		}
		return
	}
	for j := 0; 2*j < len(x); j++ {
		x[2*j] = zr[j]
		if 2*j+1 < len(x) {
			x[2*j+1] = zi[j]
		}
	}
}

// splitTables precomputes the split untangling tables on a RealPlan.
func (rp *RealPlan) splitTables() {
	rp.wRe = make([]float64, len(rp.w))
	rp.wIm = make([]float64, len(rp.w))
	rp.wiRe = make([]float64, len(rp.wi))
	rp.wiIm = make([]float64, len(rp.wi))
	for k, w := range rp.w {
		rp.wRe[k], rp.wIm[k] = real(w), imag(w)
	}
	for k, w := range rp.wi {
		rp.wiRe[k], rp.wiIm[k] = real(w), imag(w)
	}
}
