package circulant

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fft"
)

// The spectral engine: the one product of a block-circulant matrix with a
// power-of-two block size. A batch of vectors — a coalesced serving batch,
// the output pixels of a CONV layer, or a single vector, which is a batch
// of one — is pushed through the matrix in a single planned spectral pass.
//
// Four things make one pass over B vectors faster than B passes over one:
//
//   - Real-input half-spectrum transforms (fft.RealPlan): every block FFT
//     and IFFT runs at half size by conjugate symmetry, and the spectral
//     accumulation touches b/2+1 bins instead of b.
//   - Split-complex (SoA) storage end to end: input spectra, weight spectra
//     and accumulators live as parallel Re/Im float64 planes
//     (fft.SplitSlice), so every butterfly and every multiply-accumulate is
//     straight float64 arithmetic over unit-stride streams — no complex128
//     interleave anywhere on the hot path. The weight spectra are split
//     once at plan time (BlockCirculant.Refresh), never per product.
//   - Weight-spectrum streaming: each cached block spectrum s_ij is loaded
//     once per batch and applied to all B input spectra while it is hot,
//     instead of being re-read B times.
//   - Block-row parallelism: output blocks are independent, so they are
//     fanned out over a bounded process-wide worker pool. Work is split by
//     output block (never within one accumulation), so results do not
//     depend on the worker count.
//
// Numerics: a vector's result is a function of that vector and the matrix
// alone — bit for bit the same at batch 1, inside any larger batch, at any
// column of it and at any worker count (columns are independent in every
// transform, and the accumulation order over input blocks is fixed). Tests
// pin this with math.Float64bits; it is what lets a serving scheduler
// coalesce requests, and a result cache replay them, without changing an
// answer. The engine is validated against the O(n²) Dense() expansion, the
// numerically independent oracle.
//
// Block sizes the real plan does not cover (not a power of two, or 1) run
// the generic complex128 body (mulGeneric) one vector at a time.

// workerSem is the process-wide bounded worker pool for block-row
// parallelism: at most GOMAXPROCS−1 extra goroutines beyond the callers, no
// matter how many batched products run concurrently. When the pool is
// drained a product simply runs inline on its caller.
var workerSem = make(chan struct{}, runtime.GOMAXPROCS(0)-1)

// parallelThreshold is the minimum per-product work estimate
// (batch × input blocks × block size) before a batched product tries to
// recruit pool workers; below it the fan-out overhead outweighs the win.
const parallelThreshold = 1 << 13

// pfor runs fn(worker, idx) for every idx in [0, n), on the caller plus up
// to extra goroutines recruited non-blockingly from the bounded pool. The
// caller is always worker 0; recruits get distinct ids in [1, maxWorkers).
// fn must write only idx-owned state (plus worker-owned scratch), so the
// schedule never affects results.
func pfor(n, maxWorkers int, fn func(worker, idx int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	if maxWorkers > n {
		maxWorkers = n
	}
	for extra := 1; extra < maxWorkers; extra++ {
		select {
		case workerSem <- struct{}{}:
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				defer func() { <-workerSem }()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					fn(worker, i)
				}
			}(extra)
		default:
			extra = maxWorkers // pool drained; run with what we have
		}
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= n {
			break
		}
		fn(0, i)
	}
	wg.Wait()
}

// poolWidth returns how many workers (caller included) a stage with n
// independent tasks may use.
//
//repro:noalloc
func poolWidth(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// BatchWorkspace is caller-owned scratch for block-circulant products, held
// entirely in split (SoA) form. The packed blocks and their spectra live in
// the transposed bin-major layout of fft's SplitMany kernels: bin t of
// transform m at index t·pitch+m, with one column per (vector, input block)
// pair. It grows to the largest (matrix, batch) pair it has served and is
// retained across calls, so one BatchWorkspace can be threaded through every
// layer of a forward pass; the zero value is ready to use. A BatchWorkspace
// must not be used by two goroutines at once (the product manages its own
// internal parallelism).
type BatchWorkspace struct {
	zAll  fft.SplitSlice   // packed input blocks, bin-major: half rows × pitch
	specs fft.SplitSlice   // input half-spectra, bin-major: specLen rows × pitch
	wt    []fft.SplitSlice // per-worker weight-spectrum gather, nIn bins
	acc   []fft.SplitSlice // per-worker accumulators, specLen rows × batch pitch
	z     []fft.SplitSlice // per-worker packed inverse buffer, half rows × batch pitch
}

// NewBatchWorkspace returns an empty BatchWorkspace ready for reuse.
func NewBatchWorkspace() *BatchWorkspace { return &BatchWorkspace{} }

// wsPool lends a BatchWorkspace to calls that pass none (MulVec,
// TransMulVec, training's nil-workspace forwards), so ad-hoc concurrent
// products — on one matrix or many — stay safe and, once warm, mostly
// allocation-free. One pool for the package: scratch is sized by the
// product, not owned by a matrix.
var wsPool = sync.Pool{New: func() any { return NewBatchWorkspace() }}

// rowPitch pads a bin-major row length so consecutive rows do not land on
// the same L1 cache sets: power-of-two-ish row strides (the natural
// batch × blocks counts are all powers of two) make every row alias the
// same handful of sets and thrash an N-way cache during the strided
// pack/store transposes.
//
//repro:noalloc
func rowPitch(count int) int {
	if count%32 == 0 {
		return count + 8
	}
	return count
}

// ensure sizes the batched buffers for one product.
//
//repro:noalloc
func (w *BatchWorkspace) ensure(specLen, half, nIn, pitch, bpitch, workers int) {
	w.zAll = w.zAll.Resize(half * pitch)
	w.specs = w.specs.Resize(specLen * pitch)
	if len(w.wt) < workers {
		w.wt = append(w.wt, make([]fft.SplitSlice, workers-len(w.wt))...)
		w.acc = append(w.acc, make([]fft.SplitSlice, workers-len(w.acc))...)
		w.z = append(w.z, make([]fft.SplitSlice, workers-len(w.z))...)
	}
	for i := 0; i < workers; i++ {
		w.wt[i] = w.wt[i].Resize(nIn)
		w.acc[i] = w.acc[i].Resize(specLen * bpitch)
		w.z[i] = w.z[i].Resize(half * bpitch)
	}
}

// MulBatchInto computes W·xᵥ for a batch of vectors in one spectral pass.
// x holds the batch row-major (batch × Cols), dst receives batch × Rows (a
// nil dst is allocated) and is returned. A nil ws borrows pooled scratch;
// long-lived callers should reuse one BatchWorkspace.
//
//repro:noalloc
func (m *BlockCirculant) MulBatchInto(dst, x []float64, batch int, ws *BatchWorkspace) []float64 {
	return m.mulBatch("MulBatchInto", dst, x, batch, ws, false, nil, false)
}

// TransMulBatchInto computes Wᵀ·xᵥ for a batch of vectors in one spectral
// pass — the batched form of the paper's FC-layer bottleneck. x holds the
// batch row-major (batch × Rows), dst receives batch × Cols (a nil dst is
// allocated) and is returned.
//
//repro:noalloc
func (m *BlockCirculant) TransMulBatchInto(dst, x []float64, batch int, ws *BatchWorkspace) []float64 {
	return m.mulBatch("TransMulBatchInto", dst, x, batch, ws, true, nil, false)
}

// TransMulBatchFusedInto computes ψ(Wᵀ·xᵥ + θ) for a batch of vectors in
// one spectral pass, fusing the epilogue into the inverse transform's
// de-interleave so each output element is written exactly once: θ is the
// bias (length Cols, required) and ψ is max(·, 0) when relu is set, the
// identity otherwise. This is the serving form of the paper's FC layer
// (y = ψ(Wᵀx + θ)): it removes one full read-modify-write sweep over the
// activations per layer.
//
//repro:noalloc
func (m *BlockCirculant) TransMulBatchFusedInto(dst, x []float64, batch int, ws *BatchWorkspace, bias []float64, relu bool) []float64 {
	if len(bias) != m.cols {
		panic(fmt.Sprintf("circulant: TransMulBatchFusedInto bias length %d, want %d", len(bias), m.cols))
	}
	return m.mulBatch("TransMulBatchFusedInto", dst, x, batch, ws, true, bias, relu)
}

// mulBatch is the one body behind every product entry point: it validates
// the shapes, then runs the engine (batchCore) when the block size has a
// real plan and the generic body vector by vector otherwise. trans, bias
// and relu are batchCore's.
//
//repro:noalloc
func (m *BlockCirculant) mulBatch(op string, dst, x []float64, batch int, ws *BatchWorkspace, trans bool, bias []float64, relu bool) []float64 {
	inLen, outLen := m.cols, m.rows
	if trans {
		inLen, outLen = m.rows, m.cols
	}
	if batch < 1 || len(x) != batch*inLen {
		panic(fmt.Sprintf("circulant: %s batch %d, input length %d, want %d", op, batch, len(x), batch*inLen))
	}
	dst = ensureDst(dst, batch*outLen, op)
	switch {
	case m.rplan == nil:
		for v := 0; v < batch; v++ {
			row := dst[v*outLen : (v+1)*outLen]
			//repro:lint-ignore noalloc block sizes without a real plan (not a power of two, or 1) take the documented generic body, which allocates its scratch
			m.mulGeneric(row, x[v*inLen:(v+1)*inLen], trans)
			for j, b := range bias {
				row[j] += b
				if relu {
					row[j] = max(row[j], 0)
				}
			}
		}
	case ws == nil:
		ws = wsPool.Get().(*BatchWorkspace)
		m.batchCore(dst, x, batch, ws, trans, bias, relu)
		wsPool.Put(ws)
	default:
		m.batchCore(dst, x, batch, ws, trans, bias, relu)
	}
	return dst
}

// ensureDst validates or allocates an output slice of length n.
//
//repro:noalloc
func ensureDst(dst []float64, n int, op string) []float64 {
	if dst == nil {
		//repro:lint-ignore noalloc a nil dst is documented to allocate its own output; hot callers pass a preallocated buffer
		return make([]float64, n)
	}
	if len(dst) != n {
		panic(fmt.Sprintf("circulant: %s dst length %d, want %d", op, len(dst), n))
	}
	return dst
}

// batchCore is the engine. trans selects the correlation
// form (Wᵀ·x, conjugated weight spectra); otherwise the convolution form
// (W·x). bias (optional, length outLen) and relu are the fused epilogue
// applied as output blocks are de-interleaved.
//
// Three stages, all on the transposed bin-major layout:
//
//  1. pack: every zero-padded input block of every vector becomes one
//     column of ws.zAll (parallel over vectors);
//  2. transform: one ForwardSplitManyRev + UnpackSplitMany over all columns
//     (parallel over column ranges — columns are independent);
//  3. output: per output block, the register-accumulator multiply-
//     accumulate across input blocks, PreInverseSplitManyRev,
//     InverseSplitManyRev and the fused-epilogue store (parallel over output
//     blocks, the independent unit).
//
//repro:noalloc
func (m *BlockCirculant) batchCore(dst, x []float64, batch int, ws *BatchWorkspace, trans bool, bias []float64, relu bool) {
	b := m.block
	half := b / 2
	specLen := half + 1

	inBlks, outBlks, inLen, outLen := m.l, m.k, m.cols, m.rows
	if trans {
		inBlks, outBlks, inLen, outLen = m.k, m.l, m.rows, m.cols
	}
	count := batch * inBlks
	pitch := rowPitch(count)
	bpitch := rowPitch(batch)

	workers := 1
	if batch*inBlks*b >= parallelThreshold {
		w1, w2 := poolWidth(batch), poolWidth(outBlks)
		if w2 > w1 {
			workers = w2
		} else {
			workers = w1
		}
	}
	ws.ensure(specLen, half, inBlks, pitch, bpitch, workers)

	// The serial path calls the stage methods directly so the steady state
	// allocates nothing (closures passed to pfor escape to the heap).
	rp := m.rplan
	if workers == 1 {
		for v := 0; v < batch; v++ {
			m.packColumns(ws, x, inBlks, inLen, pitch, v)
		}
		rp.Complex().ForwardSplitManyRev(ws.zAll, pitch, 0, count)
		rp.UnpackSplitMany(ws.specs, ws.zAll, pitch, 0, count)
		for j := 0; j < outBlks; j++ {
			m.batchOutBlock(ws, dst, batch, inBlks, outLen, pitch, bpitch, trans, bias, relu, 0, j)
		}
		return
	}
	//repro:lint-ignore noalloc the parallel fan-out heap-allocates its pfor closures by design; the serial serving path above stays allocation-free
	pfor(batch, workers, func(worker, v int) {
		m.packColumns(ws, x, inBlks, inLen, pitch, v)
	})
	//repro:lint-ignore noalloc the parallel fan-out heap-allocates its pfor closures by design; the serial serving path above stays allocation-free
	pfor(workers, workers, func(worker, c int) {
		c0 := c * count / workers
		c1 := (c + 1) * count / workers
		rp.Complex().ForwardSplitManyRev(ws.zAll, pitch, c0, c1)
		rp.UnpackSplitMany(ws.specs, ws.zAll, pitch, c0, c1)
	})
	//repro:lint-ignore noalloc the parallel fan-out heap-allocates its pfor closures by design; the serial serving path above stays allocation-free
	pfor(outBlks, workers, func(worker, j int) {
		m.batchOutBlock(ws, dst, batch, inBlks, outLen, pitch, bpitch, trans, bias, relu, worker, j)
	})
}

// packColumns (stage 1) folds every zero-padded input block of vector v
// into its column of the transposed packed buffer: block i of vector v is
// column v·inBlks+i, with packed bin j (x[2j] + i·x[2j+1]) stored at the
// bit-reversed row perm[j] — the pack is a scatter anyway, so writing
// through the permutation is free and lets the forward transform run as
// ForwardSplitManyRev, skipping its permutation round trip.
//
//repro:noalloc
func (m *BlockCirculant) packColumns(ws *BatchWorkspace, x []float64, inBlks, inLen, pitch, v int) {
	b := m.block
	half := b / 2
	perm := m.rplan.Complex().BitReversal()
	zr, zi := ws.zAll.Re, ws.zAll.Im
	xv := x[v*inLen : (v+1)*inLen]
	col0 := v * inBlks
	if inBlks*b == inLen {
		// Exact tiling (every serving architecture's FC layers): walk
		// row-major so each packed row gets one inBlks-long sequential
		// write run instead of a pitch-strided single-element scatter.
		for j := 0; j < half; j++ {
			r := int(perm[j])*pitch + col0
			rowR := zr[r : r+inBlks]
			rowI := zi[r : r+inBlks]
			for i := 0; i < inBlks; i++ {
				rowR[i] = xv[i*b+2*j]
				rowI[i] = xv[i*b+2*j+1]
			}
		}
		return
	}
	for i := 0; i < inBlks; i++ {
		col := col0 + i
		lo := i * b
		n := inLen - lo
		if n > b {
			n = b
		}
		j := 0
		for ; 2*j+1 < n; j++ {
			r := int(perm[j]) * pitch
			zr[r+col] = xv[lo+2*j]
			zi[r+col] = xv[lo+2*j+1]
		}
		if 2*j < n {
			r := int(perm[j]) * pitch
			zr[r+col] = xv[lo+2*j]
			zi[r+col] = 0
			j++
		}
		for ; j < half; j++ {
			r := int(perm[j]) * pitch
			zr[r+col] = 0
			zi[r+col] = 0
		}
	}
}

// batchOutBlock (stage 2) accumulates output block j for the whole batch in
// the transposed split half-spectrum domain, inverse-transforms it, and
// stores it into dst with the fused epilogue (bias, relu) applied as it
// de-interleaves.
//
//repro:noalloc
func (m *BlockCirculant) batchOutBlock(ws *BatchWorkspace, dst []float64, batch, inBlks, outLen, pitch, bpitch int, trans bool, bias []float64, relu bool, worker, j int) {
	b, rp := m.block, m.rplan
	half := b / 2
	specLen := half + 1
	acc := ws.acc[worker]
	accRe, accIm := acc.Re, acc.Im
	specsRe, specsIm := ws.specs.Re, ws.specs.Im
	// Weight spectra for output block j, one per input block i: block (i,j)
	// in the correlation (trans) form, (j,i) in the convolution form. Both
	// live at offset wbase + i·wstride in the split plan-time tables; the
	// bin-t values for all input blocks are gathered once per bin into
	// ws.wt and then streamed across the whole batch while hot.
	wRe, wIm := m.sspec.Re, m.sspec.Im
	wbase, wstride := j*m.l*specLen, specLen
	if trans {
		wbase, wstride = j*specLen, m.l*specLen
	}
	wtr, wti := ws.wt[worker].Re, ws.wt[worker].Im
	for t := 0; t < specLen; t++ {
		wo := wbase + t
		for i := 0; i < inBlks; i++ {
			wtr[i] = wRe[wo]
			wti[i] = wIm[wo]
			wo += wstride
		}
		if t == 0 || t == half {
			// DC and Nyquist bins of a real signal's spectrum are purely
			// real — in both the weights and the inputs — so these two rows
			// reduce to a real dot product (the imaginary accumulator is
			// exactly zero either way).
			xr := specsRe[t*pitch : t*pitch+batch*inBlks]
			ar := accRe[t*bpitch : t*bpitch+batch]
			ai := accIm[t*bpitch : t*bpitch+batch]
			wr := wtr[:inBlks]
			for v, off := 0, 0; v < batch; v, off = v+1, off+inBlks {
				var aR float64
				x0r := xr[off : off+inBlks]
				for i := 0; i < inBlks; i++ {
					aR += wr[i] * x0r[i]
				}
				ar[v], ai[v] = aR, 0
			}
			continue
		}
		// In the bin-major layout, bin t of every (vector, block) column is
		// one contiguous row, so the accumulation below is a single sweep
		// over it. Two vectors per pass: the i-loop is a loop-carried
		// addition chain per accumulator, so pairing vectors interleaves
		// four independent chains (and halves the weight reloads), keeping
		// both FP pipes busy instead of serialising on add latency. The
		// per-vector summation order over i is unchanged, so results are
		// bit-identical to the one-vector form.
		xr := specsRe[t*pitch : t*pitch+batch*inBlks]
		xi := specsIm[t*pitch : t*pitch+batch*inBlks]
		ar := accRe[t*bpitch : t*bpitch+batch]
		ai := accIm[t*bpitch : t*bpitch+batch]
		wr := wtr[:inBlks]
		wi := wti[:inBlks]
		v, off := 0, 0
		if trans {
			for ; v+1 < batch; v, off = v+2, off+2*inBlks {
				var aR0, aI0, aR1, aI1 float64
				x0r := xr[off : off+inBlks]
				x0i := xi[off : off+inBlks]
				x1r := xr[off+inBlks : off+2*inBlks]
				x1i := xi[off+inBlks : off+2*inBlks]
				for i := 0; i < inBlks; i++ {
					sr, si := wr[i], wi[i]
					aR0 += sr*x0r[i] + si*x0i[i]
					aI0 += sr*x0i[i] - si*x0r[i]
					aR1 += sr*x1r[i] + si*x1i[i]
					aI1 += sr*x1i[i] - si*x1r[i]
				}
				ar[v], ai[v] = aR0, aI0
				ar[v+1], ai[v+1] = aR1, aI1
			}
		} else {
			for ; v+1 < batch; v, off = v+2, off+2*inBlks {
				var aR0, aI0, aR1, aI1 float64
				x0r := xr[off : off+inBlks]
				x0i := xi[off : off+inBlks]
				x1r := xr[off+inBlks : off+2*inBlks]
				x1i := xi[off+inBlks : off+2*inBlks]
				for i := 0; i < inBlks; i++ {
					sr, si := wr[i], wi[i]
					aR0 += sr*x0r[i] - si*x0i[i]
					aI0 += sr*x0i[i] + si*x0r[i]
					aR1 += sr*x1r[i] - si*x1i[i]
					aI1 += sr*x1i[i] + si*x1r[i]
				}
				ar[v], ai[v] = aR0, aI0
				ar[v+1], ai[v+1] = aR1, aI1
			}
		}
		for ; v < batch; v, off = v+1, off+inBlks {
			var aR, aI float64
			x0r := xr[off : off+inBlks]
			x0i := xi[off : off+inBlks]
			for i := 0; i < inBlks; i++ {
				sr, si := wr[i], wi[i]
				if trans {
					aR += sr*x0r[i] + si*x0i[i]
					aI += sr*x0i[i] - si*x0r[i]
				} else {
					aR += sr*x0r[i] - si*x0i[i]
					aI += sr*x0i[i] + si*x0r[i]
				}
			}
			ar[v], ai[v] = aR, aI
		}
	}
	z := ws.z[worker]
	rp.PreInverseSplitManyRev(z, acc, bpitch, 0, batch)
	rp.Complex().InverseSplitManyRev(z, bpitch, 0, batch)
	lo := j * b
	hi := lo + b
	if hi > outLen {
		hi = outLen
	}
	var blockBias []float64
	if bias != nil {
		blockBias = bias[lo:hi]
	}
	for v := 0; v < batch; v++ {
		storeColumn(dst[v*outLen+lo:v*outLen+hi], z.Re, z.Im, bpitch, v, blockBias, relu)
	}
}

// storeColumn de-interleaves one inverse-transformed column of the
// transposed packed buffer into seg, applying the optional fused epilogue
// — bias add and ReLU — so the output memory is written exactly once.
// len(seg) may be odd (truncated tail block).
//
//repro:noalloc
func storeColumn(seg, zRe, zIm []float64, pitch, col int, bias []float64, relu bool) {
	n := len(seg)
	h := n / 2
	switch {
	case bias == nil:
		for j := 0; j < h; j++ {
			seg[2*j] = zRe[j*pitch+col]
			seg[2*j+1] = zIm[j*pitch+col]
		}
		if n%2 == 1 {
			seg[n-1] = zRe[h*pitch+col]
		}
	case relu:
		for j := 0; j < h; j++ {
			seg[2*j] = max(zRe[j*pitch+col]+bias[2*j], 0)
			seg[2*j+1] = max(zIm[j*pitch+col]+bias[2*j+1], 0)
		}
		if n%2 == 1 {
			seg[n-1] = max(zRe[h*pitch+col]+bias[n-1], 0)
		}
	default:
		for j := 0; j < h; j++ {
			seg[2*j] = zRe[j*pitch+col] + bias[2*j]
			seg[2*j+1] = zIm[j*pitch+col] + bias[2*j+1]
		}
		if n%2 == 1 {
			seg[n-1] = zRe[h*pitch+col] + bias[n-1]
		}
	}
}
