package program

import (
	"fmt"
	"math"

	"repro/internal/fft"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// ensure grows the execution arenas to hold a batch of the given size.
// Capacity is retained, so a program that has seen its steady-state batch
// never allocates again.
//
//repro:noalloc
func (p *Program) ensure(batch int) {
	for s := 0; s < 2; s++ {
		if n := p.fmax[s] * batch; cap(p.farena[s]) < n {
			p.farena[s] = make([]float64, n)
		}
	}
	if n := p.qxMax * batch; cap(p.qx) < n {
		p.qx = make([]int16, n)
	}
	if n := p.qaccMax * batch; cap(p.qacc) < n {
		p.qacc = make([]int64, n)
	}
	if p.qxMax > 0 && cap(p.qscale) < batch {
		p.qscale = make([]float64, batch)
	}
	if cap(p.qntt) < p.qnttMax {
		p.qntt = make([]uint64, p.qnttMax)
	}
}

// Run executes the program on a [B, InShape...] batch (any input shape
// with the right per-sample length is accepted and viewed in the
// canonical shape) and returns the [B, OutDim] scores. The result is
// backed by the program's arena: it is valid until the next Run, and
// callers copy what they keep. Run panics on a malformed batch, matching
// the layer contract; shape errors between ops cannot occur — they were
// compiled out.
//
// A warm Run — same or smaller batch than the program has already
// served — allocates nothing on the typed-op path; fallback KindLayer
// ops (convolutions, pooling) allocate their own outputs exactly like
// the interpreted path.
//
//repro:noalloc
func (p *Program) Run(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() < 1 || x.Dim(0) < 1 {
		//repro:lint-ignore nopanic Run's documented contract panics on malformed batches like the layer API; serving validates shape before dispatch
		panic(fmt.Sprintf("program: Run input shape %v, want [batch, ...]", x.Shape()))
	}
	batch := x.Dim(0)
	if x.Len() != batch*p.inDim {
		//repro:lint-ignore nopanic Run's documented contract panics on malformed batches like the layer API; serving validates shape before dispatch
		panic(fmt.Sprintf("program: Run input %d elements per sample, program needs %d", x.Len()/batch, p.inDim))
	}
	p.ensure(batch)
	cur := x
	if !canonicalShape(x, p.inShape) {
		p.inDims[0] = batch
		cur = p.inT.Bind(x.Data, p.inDims...)
	}
	for i := range p.ops {
		cur = p.exec(&p.ops[i], cur, batch)
	}
	return cur
}

// canonicalShape reports whether x is already [B, per...].
//
//repro:noalloc
func canonicalShape(x *tensor.Tensor, per []int) bool {
	if x.Rank() != len(per)+1 {
		return false
	}
	for i, d := range per {
		if x.Dim(i+1) != d {
			return false
		}
	}
	return true
}

// bindOut binds the op's reusable output header over its planned float
// slot for the given batch.
//
//repro:noalloc
func (p *Program) bindOut(o *op, batch int) *tensor.Tensor {
	n := flatLen(o.outShape) * batch
	o.dims[0] = batch
	return o.t.Bind(p.farena[o.slot][:n], o.dims...)
}

// exec dispatches one op. Integer ops communicate through the program's
// int16/int64 scratch (their producers and consumers are adjacent by
// construction) and pass the float chain value through untouched.
//
//repro:noalloc
func (p *Program) exec(o *op, x *tensor.Tensor, batch int) *tensor.Tensor {
	switch o.kind {
	case KindPack, KindUnpack:
		o.dims[0] = batch
		return o.t.Bind(x.Data, o.dims...)

	case KindLayer:
		if wf, ok := o.layer.(nn.WorkspaceForwarder); ok {
			//repro:lint-ignore noalloc KindLayer is the documented allocating fallback for conv/pool ops outside the typed-op set
			return wf.ForwardWS(p.fws, x, false)
		}
		//repro:lint-ignore noalloc KindLayer is the documented allocating fallback for conv/pool ops outside the typed-op set
		return o.layer.Forward(x, false)

	case KindBlockCircMul:
		if o.quantized {
			p.execQCirc(o, batch)
			return x
		}
		y := p.bindOut(o, batch)
		if o.fuseBias {
			o.circ.TransMulBatchFusedInto(y.Data, x.Data, batch, p.bws, o.bias, o.fuseReLU)
		} else {
			o.circ.TransMulBatchInto(y.Data, x.Data, batch, p.bws)
			if o.fuseReLU {
				reluInPlace(y.Data)
			}
		}
		return y

	case KindMatMul:
		if o.quantized {
			p.execQMatMul(o, batch)
			return x
		}
		y := p.bindOut(o, batch)
		tensor.MatMulInto(y, x, o.w)
		if o.fuseBias {
			n := len(o.bias)
			for v := 0; v < batch; v++ {
				row := y.Data[v*n : (v+1)*n]
				if o.fuseReLU {
					for j, b := range o.bias {
						row[j] = max(row[j]+b, 0)
					}
				} else {
					for j, b := range o.bias {
						row[j] += b
					}
				}
			}
		} else if o.fuseReLU {
			reluInPlace(y.Data)
		}
		return y

	case KindBiasAdd:
		y := p.bindOut(o, batch)
		n := len(o.bias)
		for v := 0; v < batch; v++ {
			src := x.Data[v*n : (v+1)*n]
			dst := y.Data[v*n : (v+1)*n]
			for j, b := range o.bias {
				dst[j] = src[j] + b
			}
		}
		return y

	case KindReLU:
		y := p.bindOut(o, batch)
		for i, v := range x.Data {
			y.Data[i] = max(v, 0)
		}
		return y

	case KindSoftmax:
		y := p.bindOut(o, batch)
		n := flatLen(o.outShape)
		for v := 0; v < batch; v++ {
			softmaxRow(x.Data[v*n:(v+1)*n], y.Data[v*n:(v+1)*n])
		}
		return y

	case KindQuantize:
		p.quantizeActivations(o, x, batch)
		return x

	case KindDequantize:
		return p.execDequant(o, batch)
	}
	//repro:lint-ignore nopanic an unknown op kind is a compiler bug, not a request error; Compile can never emit one
	panic(fmt.Sprintf("program: exec on invalid op kind %d", o.kind))
}

//repro:noalloc
func reluInPlace(data []float64) {
	for i, v := range data {
		data[i] = max(v, 0)
	}
}

//repro:noalloc
func softmaxRow(src, dst []float64) {
	m := math.Inf(-1)
	for _, v := range src {
		if v > m {
			m = v
		}
	}
	var sum float64
	for j, v := range src {
		e := math.Exp(v - m)
		dst[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range dst {
		dst[j] *= inv
	}
}

// quantizeActivations is the KindQuantize kernel: one dynamic symmetric
// scale per sample row (max|v| maps to 2^(bits−1)−1), values rounded to
// nearest-even and clamped — quant.FixedPointDense's activation
// quantisation applied row by row. The scale is deliberately per sample,
// not per batch: a served sample's scores must not depend on which other
// requests the scheduler happened to coalesce around it (determinism,
// and result-cache correctness, under batched serving).
//
// A row holding a NaN or an infinity has no fixed-point image (the max-abs
// scan cannot see a NaN, and int16(NaN) is implementation-defined): it
// quantises to zeros with scale NaN, so that sample — and only that
// sample — dequantises to NaN scores, as it would on the float build.
//
//repro:noalloc
func (p *Program) quantizeActivations(o *op, x *tensor.Tensor, batch int) {
	n := flatLen(o.inShape)
	levels := float64(int(1)<<(o.actBits-1)) - 1
	for v := 0; v < batch; v++ {
		src := x.Data[v*n : (v+1)*n]
		q := p.qx[v*n : (v+1)*n]
		maxAbs, nonFinite := 0.0, 0.0
		for _, s := range src {
			if a := math.Abs(s); a > maxAbs {
				maxAbs = a
			}
			nonFinite += s - s // 0 for a finite s, NaN for NaN and ±Inf
		}
		if nonFinite != 0 {
			for i := range q {
				q[i] = 0
			}
			p.qscale[v] = math.NaN()
			continue
		}
		scale := 1.0
		if maxAbs > 0 {
			scale = maxAbs / levels
		}
		inv := 1 / scale
		for i, s := range src {
			r := math.RoundToEven(s * inv)
			if r > levels {
				r = levels
			} else if r < -levels {
				r = -levels
			}
			q[i] = int16(r)
		}
		p.qscale[v] = scale
	}
}

// execQMatMul is the integer dense product: int16 activations × int16
// weights accumulated in int64, per sample — quant.FixedPointDense's
// kernel over a whole batch.
//
//repro:noalloc
func (p *Program) execQMatMul(o *op, batch int) {
	in := flatLen(o.inShape)
	out := flatLen(o.outShape)
	for v := 0; v < batch; v++ {
		qrow := p.qx[v*in : (v+1)*in]
		arow := p.qacc[v*out : (v+1)*out]
		for j := range arow {
			arow[j] = 0
		}
		for i, qv := range qrow {
			if qv == 0 {
				continue
			}
			a := int64(qv)
			wrow := o.qw.Data[i*out : (i+1)*out]
			for j, wv := range wrow {
				arow[j] += a * int64(wv)
			}
		}
	}
}

// execQCirc is the integer block-circulant transpose product, Algorithm 1
// in exact integer arithmetic: per sample, the k int16 activation segments
// are packed qgroup to a field word (circSpectra) and each word is
// transformed once (fft.NTTPlan, the DFT over the Goldilocks field); each of
// the l output blocks accumulates Σ_q V̂_qj ∘ X̂_q in the transform domain
// against the weight spectra stored at compile time and pays one inverse. A
// ragged last segment is zero-padded and a ragged last block truncated, as
// on the float path.
//
// The result is exact by range, not by tolerance: every accumulator
// (Cᵀx)_t = Σ_s w[(s−t) mod b]·x_s is bounded by rows·2³⁰ in magnitude,
// far inside the field's ±(2⁶³ − 2³¹), so nothing wraps and qacc holds the
// very int64 values a time-domain MAC over the defining vectors produces
// (TestQCircExact evaluates that definition as the oracle). With two
// segments per word the field value is lane0 + 2³²·lane1, both lanes inside
// int32 by the compile-time gate (segmentsPerWord), and the accumulator is
// its low 32 bits, sign-extended.
//
// A block size that is not a power of two runs the same schedule at a
// padded length n ≥ 2b: the cyclic product of length n is then the linear
// convolution, and adding its tail back (y[t] = z[t] + z[t+b]) in the field
// wraps it to length b before decoding.
//
//repro:noalloc
func (p *Program) execQCirc(o *op, batch int) {
	m := o.circ
	k, l := m.Grid()
	b := m.BlockSize()
	rows, cols := m.Rows(), m.Cols()
	n := o.ntt.Size()
	g := o.qgroup
	kw := (k + g - 1) / g
	drop := uint(32 * (g - 1)) // bits above lane 0
	xs, acc := p.qntt[:kw*n], p.qntt[kw*n:(kw+1)*n]
	for v := 0; v < batch; v++ {
		qrow := p.qx[v*rows : (v+1)*rows]
		arow := p.qacc[v*cols : (v+1)*cols]
		for q := 0; q < kw; q++ {
			xh := xs[q*n : (q+1)*n]
			for t := range xh {
				xh[t] = 0
			}
			for i := q * g; i < min((q+1)*g, k); i++ {
				lane := uint(32 * (i % g))
				for t, x := range qrow[i*b : min((i+1)*b, rows)] {
					xh[t] += uint64(int64(x)) << lane
				}
			}
			for t, x := range xh {
				xh[t] = fft.NTTFromInt64(int64(x))
			}
			o.ntt.Forward(xh)
		}
		for j := 0; j < l; j++ {
			for q := 0; q < kw; q++ {
				w := o.qspec[(j*kw+q)*n : (j*kw+q+1)*n][:len(acc)]
				xh := xs[q*n : (q+1)*n][:len(acc)]
				if q == 0 {
					for t := range acc {
						acc[t] = fft.NTTMul(w[t], xh[t])
					}
					continue
				}
				for t := range acc {
					acc[t] = fft.NTTAdd(acc[t], fft.NTTMul(w[t], xh[t]))
				}
			}
			o.ntt.Inverse(acc)
			if n != b {
				for t := 0; t < b; t++ {
					acc[t] = fft.NTTAdd(acc[t], acc[t+b])
				}
			}
			out := arow[j*b : min((j+1)*b, cols)]
			for t := range out {
				out[t] = fft.NTTToInt64(acc[t]) << drop >> drop
			}
		}
	}
}

// execDequant is the KindDequantize kernel: accumulators scaled by the
// combined activation×weight scale back to float64, with the fused bias
// add and rectifier applied as each element is stored.
//
//repro:noalloc
func (p *Program) execDequant(o *op, batch int) *tensor.Tensor {
	y := p.bindOut(o, batch)
	n := flatLen(o.outShape)
	for v := 0; v < batch; v++ {
		scale := p.qscale[v] * o.qw.Scale
		src := p.qacc[v*n : (v+1)*n]
		dst := y.Data[v*n : (v+1)*n]
		for j := range dst {
			val := float64(src[j]) * scale
			if o.fuseBias {
				val += o.bias[j]
			}
			if o.fuseReLU {
				val = max(val, 0)
			}
			dst[j] = val
		}
	}
	return y
}
