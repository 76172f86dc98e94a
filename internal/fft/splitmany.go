package fft

import "fmt"

// Transposed (bin-major) batched split transforms: `count` same-size
// transforms stored with bin k of transform m at index k·stride+m, m < count
// ≤ stride. Where a contiguous kernel walks one tiny transform at a time —
// inner loops of length size/2, twiddle reloads per butterfly — the Many
// kernels run every butterfly across all transforms at once: the twiddle
// pair is hoisted out of the inner loop, which becomes a straight
// multiply-add sweep over contiguous count-long rows. They are the
// package's only split butterflies and real-transform phases: the serving
// path runs nothing else, and RealPlan.ForwardSplit/InverseSplit are these
// kernels at count 1.
//
// A row of a batch-1 pass holds only 2–4 columns, so in Go the per-row
// slicing and bounds checks, not the FP pipes, set the pace. Adjacent
// columns are adjacent float64s, which is what one SSE2 register holds: on
// amd64 the column pairs of a span run on column-pair kernels
// (splitmany_amd64.s) — the radix-8 head, the fused stage pairs, the
// trailing radix-2 stage, UnpackSplitMany's rows 1 … h−1 and
// PreInverseSplitManyRev — with each lane performing its column's Go
// expression tree, so every column gets the Go loops' bits. The Go loops
// are the reference and the path elsewhere, and run what a pair cannot: n
// ≤ 4, a span's odd last column and UnpackSplitMany's DC and Nyquist rows.
//
// The stride is the caller's row pitch: padding it away from high powers of
// two (see circulant's rowPitch) avoids cache-set aliasing between rows.
//
// The kernels are the Rev forms only: they expect their input rows already
// in bit-reversed order (natural bin j at row BitReversal()[j]). Both
// producers in the engine — the input pack and PreInverseSplitManyRev — are
// scatters anyway, so they write through the permutation for free and the
// transform skips its permutation pass, a full extra memory round trip over
// the data.
//
// All Many kernels operate on the column range [m0, m1): columns are
// independent (butterflies mix rows, never columns), so callers can
// partition [0, count) across workers and get results identical to a
// single-threaded pass, and a column's result does not depend on which
// other columns share the pass. Per transform the butterfly order and
// twiddle values match Plan.Forward/Inverse exactly, so results are
// bit-identical to the per-vector complex128 kernels (asserted by
// TestSplitManyRevMatchesPlan).
//
// Scale contract: the kernels leave out every power-of-two factor of the
// transforms they stand for — UnpackSplitMany returns 2 × RFFT,
// InverseSplitManyRev n × Plan.Inverse, and PreInverseSplitManyRev +
// InverseSplitManyRev together n × IRFFT (n the real size). Each omitted
// factor would have been an exact multiplication, so the caller folds their
// product, 1/(2n), into whatever constant it multiplies by anyway (the
// circulant engine: its weight table) and gets the same bits with three
// fewer sweeps of multiplies.

// BitReversal returns the plan's bit-reversal permutation: natural bin j
// belongs at row BitReversal()[j] of the Rev kernels' layout. The
// permutation is an involution, so the same table maps both ways. Callers
// must treat the returned slice as read-only.
//
//repro:noalloc
func (p *Plan) BitReversal() []int32 { return p.perm }

// ForwardSplitManyRev computes the DFT of each column transform in place,
// reading rows in bit-reversed order and leaving them in natural order.
// d must hold p.Size()·stride elements per plane.
//
//repro:noalloc
func (p *Plan) ForwardSplitManyRev(d SplitSlice, stride, m0, m1 int) {
	p.transformSplitMany(d, stride, m0, m1, false)
}

// InverseSplitManyRev computes n × the inverse DFT of each column transform
// in place — the butterflies of Plan.Inverse without its trailing 1/n sweep;
// see ForwardSplitManyRev.
//
//repro:noalloc
func (p *Plan) InverseSplitManyRev(d SplitSlice, stride, m0, m1 int) {
	p.transformSplitMany(d, stride, m0, m1, true)
}

//repro:noalloc
func (p *Plan) transformSplitMany(d SplitSlice, stride, m0, m1 int, inverse bool) {
	n := p.n
	if d.Len() != n*stride || m0 < 0 || m1 > stride || m0 > m1 {
		panic(fmt.Sprintf("fft: plan size %d SplitMany: data %d, stride %d, columns [%d,%d)",
			n, d.Len(), stride, m0, m1))
	}
	if m0 == m1 {
		return
	}
	re, im := d.Re, d.Im
	sign := 1.0
	if inverse {
		sign = -1.0
	}
	stages := p.stageTw
	if inverse {
		stages = p.stageTwInv
	}
	// Where there are column-pair kernels they run the column pairs, and
	// the loops below only what is left: n ≤ 4, or a lone last column.
	if m0 = p.transformPairs(re, im, stride, m0, m1, stages, sign); m0 == m1 {
		return
	}
	s := 1 // first unprocessed stage-table index after the head pass
	switch {
	case n == 2:
		r0, i0 := re[0:m1], im[0:m1]
		r1, i1 := re[stride:stride+m1], im[stride:stride+m1]
		for m := m0; m < m1; m++ {
			ar, ai := r0[m], i0[m]
			br, bi := r1[m], i1[m]
			r0[m], i0[m] = ar+br, ai+bi
			r1[m], i1[m] = ar-br, ai-bi
		}
	case n == 4:
		// Fused stages 1+2 (twiddles 1 and ∓i), four rows at a time.
		for k := 0; k+3 < n; k += 4 {
			r0, i0 := re[k*stride:k*stride+m1], im[k*stride:k*stride+m1]
			r1, i1 := re[(k+1)*stride:(k+1)*stride+m1], im[(k+1)*stride:(k+1)*stride+m1]
			r2, i2 := re[(k+2)*stride:(k+2)*stride+m1], im[(k+2)*stride:(k+2)*stride+m1]
			r3, i3 := re[(k+3)*stride:(k+3)*stride+m1], im[(k+3)*stride:(k+3)*stride+m1]
			for m := m0; m < m1; m++ {
				a0r, a0i := r0[m], i0[m]
				a1r, a1i := r1[m], i1[m]
				a2r, a2i := r2[m], i2[m]
				a3r, a3i := r3[m], i3[m]
				s0r, s0i := a0r+a1r, a0i+a1i
				d0r, d0i := a0r-a1r, a0i-a1i
				s1r, s1i := a2r+a3r, a2i+a3i
				d1r, d1i := a2r-a3r, a2i-a3i
				t1r, t1i := sign*d1i, -sign*d1r
				r0[m], i0[m] = s0r+s1r, s0i+s1i
				r2[m], i2[m] = s0r-s1r, s0i-s1i
				r1[m], i1[m] = d0r+t1r, d0i+t1i
				r3[m], i3[m] = d0r-t1r, d0i-t1i
			}
		}
	case n >= 8:
		// Fused stages 1+2+3, eight rows at a time: stages 1 and 2 are
		// multiply-free (twiddles 1 and ∓i); stage 3 (width 8) applies its
		// four twiddles {1, w₈, ∓i, w₈³} while the group is still in
		// registers — one memory sweep where stage-at-a-time execution
		// takes two. The twiddled butterflies read the same stage table the
		// generic path would, so results are bit-identical.
		w8 := stages[1]
		w1r8, w1i8 := w8.Re[1], w8.Im[1]
		w3r8, w3i8 := w8.Re[3], w8.Im[3]
		s = 2
		for k := 0; k+7 < n; k += 8 {
			r0, i0 := re[k*stride:k*stride+m1], im[k*stride:k*stride+m1]
			r1, i1 := re[(k+1)*stride:(k+1)*stride+m1], im[(k+1)*stride:(k+1)*stride+m1]
			r2, i2 := re[(k+2)*stride:(k+2)*stride+m1], im[(k+2)*stride:(k+2)*stride+m1]
			r3, i3 := re[(k+3)*stride:(k+3)*stride+m1], im[(k+3)*stride:(k+3)*stride+m1]
			r4, i4 := re[(k+4)*stride:(k+4)*stride+m1], im[(k+4)*stride:(k+4)*stride+m1]
			r5, i5 := re[(k+5)*stride:(k+5)*stride+m1], im[(k+5)*stride:(k+5)*stride+m1]
			r6, i6 := re[(k+6)*stride:(k+6)*stride+m1], im[(k+6)*stride:(k+6)*stride+m1]
			r7, i7 := re[(k+7)*stride:(k+7)*stride+m1], im[(k+7)*stride:(k+7)*stride+m1]
			for m := m0; m < m1; m++ {
				// Stages 1+2 on rows 0..3.
				a0r, a0i := r0[m], i0[m]
				a1r, a1i := r1[m], i1[m]
				a2r, a2i := r2[m], i2[m]
				a3r, a3i := r3[m], i3[m]
				s0r, s0i := a0r+a1r, a0i+a1i
				d0r, d0i := a0r-a1r, a0i-a1i
				s1r, s1i := a2r+a3r, a2i+a3i
				d1r, d1i := a2r-a3r, a2i-a3i
				t1r, t1i := sign*d1i, -sign*d1r
				u0r, u0i := s0r+s1r, s0i+s1i
				u2r, u2i := s0r-s1r, s0i-s1i
				u1r, u1i := d0r+t1r, d0i+t1i
				u3r, u3i := d0r-t1r, d0i-t1i
				// Stages 1+2 on rows 4..7.
				a4r, a4i := r4[m], i4[m]
				a5r, a5i := r5[m], i5[m]
				a6r, a6i := r6[m], i6[m]
				a7r, a7i := r7[m], i7[m]
				s2r, s2i := a4r+a5r, a4i+a5i
				d2r, d2i := a4r-a5r, a4i-a5i
				s3r, s3i := a6r+a7r, a6i+a7i
				d3r, d3i := a6r-a7r, a6i-a7i
				t3r, t3i := sign*d3i, -sign*d3r
				u4r, u4i := s2r+s3r, s2i+s3i
				u6r, u6i := s2r-s3r, s2i-s3i
				u5r, u5i := d2r+t3r, d2i+t3i
				u7r, u7i := d2r-t3r, d2i-t3i
				// Stage 3: (u0,u4)·1, (u1,u5)·w₈, (u2,u6)·∓i, (u3,u7)·w₈³.
				r0[m], i0[m] = u0r+u4r, u0i+u4i
				r4[m], i4[m] = u0r-u4r, u0i-u4i
				b5r := u5r*w1r8 - u5i*w1i8
				b5i := u5r*w1i8 + u5i*w1r8
				r1[m], i1[m] = u1r+b5r, u1i+b5i
				r5[m], i5[m] = u1r-b5r, u1i-b5i
				b6r, b6i := sign*u6i, -sign*u6r
				r2[m], i2[m] = u2r+b6r, u2i+b6i
				r6[m], i6[m] = u2r-b6r, u2i-b6i
				b7r := u7r*w3r8 - u7i*w3i8
				b7i := u7r*w3i8 + u7i*w3r8
				r3[m], i3[m] = u3r+b7r, u3i+b7i
				r7[m], i7[m] = u3r-b7r, u3i-b7i
			}
		}
	}
	// Fused pairs of the remaining stages, one twiddle triple per k hoisted
	// over the whole column sweep; a trailing unpaired stage runs alone.
	for ; s+1 < len(stages); s += 2 {
		sizeA := 4 << s
		h := sizeA >> 1
		wa, wb := stages[s], stages[s+1]
		for start := 0; start+4*h <= n; start += 4 * h {
			for k := 0; k < h; k++ {
				w1r, w1i := wa.Re[k], wa.Im[k]
				w2r, w2i := wb.Re[k], wb.Im[k]
				w3r, w3i := wb.Re[k+h], wb.Im[k+h]
				q0r := re[(start+k)*stride : (start+k)*stride+m1]
				q0i := im[(start+k)*stride : (start+k)*stride+m1]
				q1r := re[(start+k+h)*stride : (start+k+h)*stride+m1]
				q1i := im[(start+k+h)*stride : (start+k+h)*stride+m1]
				q2r := re[(start+k+2*h)*stride : (start+k+2*h)*stride+m1]
				q2i := im[(start+k+2*h)*stride : (start+k+2*h)*stride+m1]
				q3r := re[(start+k+3*h)*stride : (start+k+3*h)*stride+m1]
				q3i := im[(start+k+3*h)*stride : (start+k+3*h)*stride+m1]
				for m := m0; m < m1; m++ {
					x1r, x1i := q1r[m], q1i[m]
					b1r := x1r*w1r - x1i*w1i
					b1i := x1r*w1i + x1i*w1r
					a0r, a0i := q0r[m], q0i[m]
					u0r, u0i := a0r+b1r, a0i+b1i
					u1r, u1i := a0r-b1r, a0i-b1i
					x3r, x3i := q3r[m], q3i[m]
					b3r := x3r*w1r - x3i*w1i
					b3i := x3r*w1i + x3i*w1r
					a2r, a2i := q2r[m], q2i[m]
					u2r, u2i := a2r+b3r, a2i+b3i
					u3r, u3i := a2r-b3r, a2i-b3i
					c2r := u2r*w2r - u2i*w2i
					c2i := u2r*w2i + u2i*w2r
					q0r[m], q0i[m] = u0r+c2r, u0i+c2i
					q2r[m], q2i[m] = u0r-c2r, u0i-c2i
					c3r := u3r*w3r - u3i*w3i
					c3i := u3r*w3i + u3i*w3r
					q1r[m], q1i[m] = u1r+c3r, u1i+c3i
					q3r[m], q3i[m] = u1r-c3r, u1i-c3i
				}
			}
		}
	}
	for ; s < len(stages); s++ {
		size := 4 << s
		half := size >> 1
		st := stages[s]
		for start := 0; start+size <= n; start += size {
			for k := 0; k < half; k++ {
				wr, wi := st.Re[k], st.Im[k]
				lr := re[(start+k)*stride : (start+k)*stride+m1]
				li := im[(start+k)*stride : (start+k)*stride+m1]
				hr := re[(start+k+half)*stride : (start+k+half)*stride+m1]
				hi := im[(start+k+half)*stride : (start+k+half)*stride+m1]
				for m := m0; m < m1; m++ {
					xr, xi := hr[m], hi[m]
					br := xr*wr - xi*wi
					bi := xr*wi + xi*wr
					ar, ai := lr[m], li[m]
					lr[m], li[m] = ar+br, ai+bi
					hr[m], hi[m] = ar-br, ai-bi
				}
			}
		}
	}
}

// UnpackSplitMany untangles count packed transforms (bin-major, rows of
// length stride, natural order) into twice their half spectra: spec[k] =
// fe + w[k]·fo with fe = zf[k] + conj(zf[h−k]) and fo = (zf[k] −
// conj(zf[h−k]))/i, the textbook untangling without its 0.5 factors. zf
// holds n/2 rows, spec n/2+1 rows; both share the stride and column range
// semantics of ForwardSplitManyRev.
//
//repro:noalloc
func (rp *RealPlan) UnpackSplitMany(spec, zf SplitSlice, stride, m0, m1 int) {
	h := rp.half
	if spec.Len() != (h+1)*stride || zf.Len() != h*stride || m0 < 0 || m1 > stride || m0 > m1 {
		panic(fmt.Sprintf("fft: RealPlan(%d).UnpackSplitMany spec %d, zf %d, stride %d, columns [%d,%d)",
			rp.n, spec.Len(), zf.Len(), stride, m0, m1))
	}
	z0r, z0i := zf.Re[0:m1], zf.Im[0:m1]
	s0r, s0i := spec.Re[0:m1], spec.Im[0:m1]
	shr := spec.Re[h*stride : h*stride+m1]
	shi := spec.Im[h*stride : h*stride+m1]
	for m := m0; m < m1; m++ {
		s, d := z0r[m]+z0i[m], z0r[m]-z0i[m]
		s0r[m], s0i[m] = s+s, 0
		shr[m], shi[m] = d+d, 0
	}
	if m0 = rp.unpackPairs(spec, zf, stride, m0, m1); m0 == m1 {
		return
	}
	for k := 1; k < h; k++ {
		wr, wi := rp.wRe[k], rp.wIm[k]
		zkr := zf.Re[k*stride : k*stride+m1]
		zki := zf.Im[k*stride : k*stride+m1]
		zrr := zf.Re[(h-k)*stride : (h-k)*stride+m1]
		zri := zf.Im[(h-k)*stride : (h-k)*stride+m1]
		skr := spec.Re[k*stride : k*stride+m1]
		ski := spec.Im[k*stride : k*stride+m1]
		for m := m0; m < m1; m++ {
			akr, aki := zkr[m], zki[m]
			arr, ari := zrr[m], zri[m]
			feRe := akr + arr
			feIm := aki - ari
			foRe := aki + ari
			foIm := arr - akr
			skr[m] = feRe + wr*foRe - wi*foIm
			ski[m] = feIm + wr*foIm + wi*foRe
		}
	}
}

// PreInverseSplitManyRev converts count half spectra (bin-major) into twice
// their packed inverse-transform inputs — z[k] = xe + i·xo with xe =
// spec[k] + conj(spec[h−k]) and xo = (spec[k] − conj(spec[h−k]))·wi[k], the
// textbook pre-inverse pass without its 0.5 factors — writing z's rows in
// bit-reversed order for InverseSplitManyRev.
//
//repro:noalloc
func (rp *RealPlan) PreInverseSplitManyRev(z, spec SplitSlice, stride, m0, m1 int) {
	h := rp.half
	if z.Len() != h*stride || spec.Len() != (h+1)*stride || m0 < 0 || m1 > stride || m0 > m1 {
		panic(fmt.Sprintf("fft: RealPlan(%d).PreInverseSplitManyRev z %d, spec %d, stride %d, columns [%d,%d)",
			rp.n, z.Len(), spec.Len(), stride, m0, m1))
	}
	if m0 = rp.preInversePairs(z, spec, stride, m0, m1); m0 == m1 {
		return
	}
	perm := rp.cplx.perm
	for k := 0; k < h; k++ {
		wr, wi := rp.wiRe[k], rp.wiIm[k]
		skr := spec.Re[k*stride : k*stride+m1]
		ski := spec.Im[k*stride : k*stride+m1]
		srr := spec.Re[(h-k)*stride : (h-k)*stride+m1]
		sri := spec.Im[(h-k)*stride : (h-k)*stride+m1]
		zrow := int(perm[k])
		zkr := z.Re[zrow*stride : zrow*stride+m1]
		zki := z.Im[zrow*stride : zrow*stride+m1]
		for m := m0; m < m1; m++ {
			akr, aki := skr[m], ski[m]
			arr, ari := srr[m], sri[m]
			xeRe := akr + arr
			xeIm := aki - ari
			dRe := akr - arr
			dIm := aki + ari
			xoRe := dRe*wr - dIm*wi
			xoIm := dRe*wi + dIm*wr
			zkr[m] = xeRe - xoIm
			zki[m] = xeIm + xoRe
		}
	}
}
