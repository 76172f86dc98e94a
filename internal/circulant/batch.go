package circulant

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fft"
)

// The spectral engine: the one product, and the one weight gradient, of a
// block-circulant matrix. A batch of vectors — a coalesced serving batch,
// the output pixels of a CONV layer, a training mini-batch, or a single
// vector, which is a batch of one — is pushed through the matrix in a
// single planned spectral pass.
//
// Five things make the pass fast:
//
//   - Real-input half-spectrum transforms (fft.RealPlan): every block FFT
//     and IFFT runs at half size by conjugate symmetry, and the spectral
//     accumulation touches n/2+1 bins instead of n.
//   - Split-complex (SoA) storage end to end: input spectra, weight spectra
//     and accumulators live as parallel Re/Im float64 planes
//     (fft.SplitSlice), so every butterfly and every multiply-accumulate is
//     straight float64 arithmetic over unit-stride streams — no complex128
//     interleave anywhere on the hot path. The weight spectra are split
//     once at plan time (BlockCirculant.Refresh), never per product.
//   - Weight spectra in consumption order: the plan-time table is
//     bin-major (BlockCirculant.wspec), so the bin product reads a bin's
//     weights straight from it — one contiguous run per output block in
//     the transpose product, the same run at stride k in the plain one —
//     with no gather and no scratch copy.
//   - Column-range parallelism: on both sides of the bin product every
//     (vector, block) column is independent, so the input and the output
//     column ranges are cut into sub-ranges fanned out over a bounded
//     process-wide worker pool. Work is never split within one
//     accumulation, so results do not depend on the worker count.
//   - Two columns per instruction on amd64: bin-major rows keep adjacent
//     columns in adjacent float64s, so fft's row sweeps, the bin product
//     of bins 1 … half−1 over whole vectors (binpairs_amd64.s, two output
//     blocks of one vector per SSE2 register), and the pack and store
//     (packpairs_amd64.s, two blocks of one vector per register, the
//     store with its bias and ReLU) run in assembly, each lane with the Go
//     loop's expression tree and so its bits. The DC and Nyquist rows, a
//     vector's odd last block, the partial vectors at the edges of a
//     worker's column range, gradColumns' bin product, the ragged pack
//     and foldColumn stay in Go.
//
// The transforms sweep all columns of a pass at once — batch·inBlks on the
// way in, batch·outBlks on the way out — which is what keeps a batch of one
// cheap: its few columns share every twiddle load and loop set-up instead of
// paying them per block.
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
// Every block size runs it. The transform length n is b for a power of two
// b ≥ 2; otherwise each block is zero-padded to n = max(2, NextPow2(2b−1)),
// where the cyclic product of two padded blocks is their linear product, and
// the store folds element t+f back onto element t < b (foldColumn): f = b
// for the convolution form W·x, f = n−b for the correlation forms Wᵀ·x and
// the weight gradient. When n = b nothing is padded or folded.

// workerSem is the process-wide bounded worker pool for column-range
// parallelism: at most GOMAXPROCS−1 extra goroutines beyond the callers, no
// matter how many batched products run concurrently. When the pool is
// drained a product simply runs inline on its caller.
var workerSem = make(chan struct{}, runtime.GOMAXPROCS(0)-1)

// parallelThreshold is the minimum per-product work estimate
// (batch × input blocks × block size) before a batched product tries to
// recruit pool workers; below it the fan-out overhead outweighs the win.
const parallelThreshold = 1 << 13

// pfor runs fn(idx) for every idx in [0, n), on the caller plus up to
// maxWorkers−1 goroutines recruited non-blockingly from the bounded pool.
// fn must write only idx-owned state, so the schedule never affects results.
func pfor(n, maxWorkers int, fn func(idx int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	if maxWorkers > n {
		maxWorkers = n
	}
	for extra := 1; extra < maxWorkers; extra++ {
		select {
		case workerSem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-workerSem }()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					fn(i)
				}
			}()
		default:
			extra = maxWorkers // pool drained; run with what we have
		}
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= n {
			break
		}
		fn(i)
	}
	wg.Wait()
}

// pforRanges runs fn over [0, n) cut into contiguous column ranges, four per
// worker and handed out as workers free up, so a worker that loses its CPU
// for a while holds back a quarter of its share rather than all of it.
func pforRanges(n, workers int, fn func(c0, c1 int)) {
	tasks := min(4*workers, n)
	pfor(tasks, workers, func(t int) { fn(t*n/tasks, (t+1)*n/tasks) })
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
// entirely in split (SoA) form. All four buffers live in the transposed
// bin-major layout of fft's SplitMany kernels: bin t of transform m at index
// t·pitch+m, with one column per (vector, input block) pair on the input
// side and per (vector, output block) pair on the output side. It grows to
// the largest (matrix, batch) pair it has served and is retained across
// calls, so one BatchWorkspace can be threaded through every layer of a
// forward pass; the zero value is ready to use. A BatchWorkspace must not be
// used by two goroutines at once (the product manages its own internal
// parallelism).
type BatchWorkspace struct {
	zAll  fft.SplitSlice // packed input blocks, bin-major: half rows × pitch
	specs fft.SplitSlice // input half-spectra, bin-major: specLen rows × pitch
	acc   fft.SplitSlice // output accumulators, bin-major: specLen rows × output pitch
	z     fft.SplitSlice // packed inverse buffer, bin-major: half rows × output pitch
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
func (w *BatchWorkspace) ensure(specLen, half, pitch, opitch int) {
	w.zAll = w.zAll.Resize(half * pitch)
	w.specs = w.specs.Resize(specLen * pitch)
	w.acc = w.acc.Resize(specLen * opitch)
	w.z = w.z.Resize(half * opitch)
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

// TransMulBatchGradInto is Algorithm 2 over a batch: the gradients of the
// FC-layer forward pass yᵥ = Wᵀ·xᵥ, given the forward inputs x (batch ×
// Rows) and the upstream gradients g = ∂L/∂y (batch × Cols). It adds the
// weight gradient Σᵥ ∂L/∂Base into dw (Base's [k][l][b] layout, which is
// Param.Grad's) and writes the input gradients ∂L/∂xᵥ = W·gᵥ into dx
// (batch × Rows). A nil ws borrows pooled scratch.
//
// ∂yᵥ/∂w_ij is itself circulant, so block (i, j)'s weight gradient is the
// correlation of the gradient block g_vj with the input block x_vi, summed
// over the batch: IFFT(Σᵥ conj(G_vj) ∘ X_vi). One pass transforms every
// input and gradient block of the batch, accumulates the bin products
// across the batch in the half spectrum, and runs one inverse per weight
// block — the frequency-domain accumulation of Mathieu, Henaff & LeCun,
// "Fast Training of Convolutional Networks through FFTs" (ICLR 2014). The
// gradient spectra double as the plain product's input spectra for dx. The
// pass runs on its caller alone.
//
//repro:noalloc
func (m *BlockCirculant) TransMulBatchGradInto(dw, dx, x, g []float64, batch int, ws *BatchWorkspace) {
	if batch < 1 || len(x) != batch*m.rows || len(g) != batch*m.cols || len(dx) != batch*m.rows || len(dw) != m.NumParams() {
		panic(fmt.Sprintf("circulant: TransMulBatchGradInto batch %d: dw %d, dx %d, x %d, g %d; want %d, %d, %d, %d",
			batch, len(dw), len(dx), len(x), len(g), m.NumParams(), batch*m.rows, batch*m.rows, batch*m.cols))
	}
	if ws == nil {
		ws = wsPool.Get().(*BatchWorkspace)
		defer wsPool.Put(ws)
	}
	// The batch·l gradient columns come first in ws.specs, where the plain
	// product's output stage reads its input spectra, and the batch·k input
	// columns follow them. The output side serves the batch·k columns of dx,
	// then the k·l weight-gradient columns.
	half, kl := m.n/2, m.k*m.l
	gCount, dxCount := batch*m.l, batch*m.k
	count := gCount + dxCount
	pitch, opitch := rowPitch(count), rowPitch(max(dxCount, kl))
	ws.ensure(half+1, half, pitch, opitch)

	for v := 0; v < batch; v++ {
		m.packColumns(ws, g[v*m.cols:(v+1)*m.cols], m.l, pitch, v*m.l)
		m.packColumns(ws, x[v*m.rows:(v+1)*m.rows], m.k, pitch, gCount+v*m.k)
	}
	m.rplan.Complex().ForwardSplitManyRev(ws.zAll, pitch, 0, count)
	m.rplan.UnpackSplitMany(ws.specs, ws.zAll, pitch, 0, count)
	m.outputColumns(ws, dx, m.l, m.k, m.rows, pitch, opitch, false, nil, false, 0, dxCount)
	m.gradColumns(ws, dw, batch, pitch, opitch)
}

// mulBatch is the one body behind every product entry point: it validates
// the shapes, then runs the engine (batchCore). trans, bias and relu are
// batchCore's.
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
	if ws == nil {
		ws = wsPool.Get().(*BatchWorkspace)
		m.batchCore(dst, x, batch, ws, trans, bias, relu)
		wsPool.Put(ws)
	} else {
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
//  1. pack: every input block of every vector, zero-padded to n, becomes
//     one column of ws.zAll (parallel over vectors);
//  2. transform: one ForwardSplitManyRev + UnpackSplitMany over all
//     batch·inBlks input columns (parallel over column ranges — columns are
//     independent);
//  3. output: outputColumns over all batch·outBlks output columns (parallel
//     over column ranges, likewise).
//
//repro:noalloc
func (m *BlockCirculant) batchCore(dst, x []float64, batch int, ws *BatchWorkspace, trans bool, bias []float64, relu bool) {
	half := m.n / 2

	inBlks, outBlks, inLen, outLen := m.l, m.k, m.cols, m.rows
	if trans {
		inBlks, outBlks, inLen, outLen = m.k, m.l, m.rows, m.cols
	}
	count, outCount := batch*inBlks, batch*outBlks
	pitch, opitch := rowPitch(count), rowPitch(outCount)
	ws.ensure(half+1, half, pitch, opitch)

	workers := 1
	if count*m.n >= parallelThreshold {
		workers = poolWidth(max(count, outCount))
	}
	// The serial path calls the stage methods directly so the steady state
	// allocates nothing (closures passed to pfor escape to the heap).
	rp := m.rplan
	if workers == 1 {
		for v := 0; v < batch; v++ {
			m.packColumns(ws, x[v*inLen:(v+1)*inLen], inBlks, pitch, v*inBlks)
		}
		rp.Complex().ForwardSplitManyRev(ws.zAll, pitch, 0, count)
		rp.UnpackSplitMany(ws.specs, ws.zAll, pitch, 0, count)
		m.outputColumns(ws, dst, inBlks, outBlks, outLen, pitch, opitch, trans, bias, relu, 0, outCount)
		return
	}
	//repro:lint-ignore noalloc the parallel fan-out heap-allocates its pfor closures by design; the serial serving path above stays allocation-free
	pfor(batch, workers, func(v int) {
		m.packColumns(ws, x[v*inLen:(v+1)*inLen], inBlks, pitch, v*inBlks)
	})
	//repro:lint-ignore noalloc the parallel fan-out heap-allocates its pfor closures by design; the serial serving path above stays allocation-free
	pforRanges(count, workers, func(c0, c1 int) {
		rp.Complex().ForwardSplitManyRev(ws.zAll, pitch, c0, c1)
		rp.UnpackSplitMany(ws.specs, ws.zAll, pitch, c0, c1)
	})
	//repro:lint-ignore noalloc the parallel fan-out heap-allocates its pfor closures by design; the serial serving path above stays allocation-free
	pforRanges(outCount, workers, func(c0, c1 int) {
		m.outputColumns(ws, dst, inBlks, outBlks, outLen, pitch, opitch, trans, bias, relu, c0, c1)
	})
}

// packColumns (stage 1) writes every input block of one vector xv,
// zero-padded to n, into its column of the transposed packed buffer: block
// i is column col0+i, with packed bin j (x[2j] + i·x[2j+1]) stored at the
// bit-reversed row perm[j] — the pack is a scatter anyway, so writing
// through the permutation is free and lets the forward transform run as
// ForwardSplitManyRev, skipping its permutation round trip.
//
//repro:noalloc
func (m *BlockCirculant) packColumns(ws *BatchWorkspace, xv []float64, inBlks, pitch, col0 int) {
	b := m.block
	half := m.n / 2
	perm := m.rplan.Complex().BitReversal()
	zr, zi := ws.zAll.Re, ws.zAll.Im
	inLen := len(xv)
	if inBlks*b == inLen && m.n == b {
		// Exact tiling (every serving architecture's FC layers): walk
		// row-major so each packed row gets one inBlks-long sequential
		// write run instead of a pitch-strided single-element scatter. The
		// pack kernel takes the block pairs where there is one, and the
		// loop below an odd last block, if any.
		done := m.packPairs(ws.zAll, xv, inBlks, pitch, col0)
		for j := 0; j < half && done < inBlks; j++ {
			r := int(perm[j])*pitch + col0
			rowR := zr[r : r+inBlks]
			rowI := zi[r : r+inBlks]
			for i := done; i < inBlks; i++ {
				rowR[i] = xv[i*b+2*j]
				rowI[i] = xv[i*b+2*j+1]
			}
		}
		return
	}
	for i := 0; i < inBlks; i++ {
		col := col0 + i
		lo := i * b
		cnt := min(inLen-lo, b)
		j := 0
		for ; 2*j+1 < cnt; j++ {
			r := int(perm[j]) * pitch
			zr[r+col] = xv[lo+2*j]
			zi[r+col] = xv[lo+2*j+1]
		}
		if 2*j < cnt {
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

// outputColumns (stage 3) produces the output columns [c0, c1) — column
// v·outBlks+o is output block o of vector v — in one sweep: the bin product
// into ws.acc, one PreInverseSplitManyRev and one InverseSplitManyRev over
// the whole range, then the store into dst — folded back to length b when
// n ≠ b — with the fused epilogue (bias, relu) applied as each column
// de-interleaves. Columns are independent, so
// any partition of [0, batch·outBlks) into ranges gives the same bits.
//
// The bin product is, per bin row, a small matrix product: the weight of
// (input block i, output block o) sits at i·wi + o·wo of the bin's k·l table
// slice — contiguous in i for the correlation (trans) form, stride k for the
// convolution form — and is conjugated in the correlation form. Each
// accumulator sums over i = 0 … inBlks−1 in that order, whatever tile it is
// computed in, which is what keeps a column's bits independent of its
// neighbours.
//
//repro:noalloc
func (m *BlockCirculant) outputColumns(ws *BatchWorkspace, dst []float64, inBlks, outBlks, outLen, pitch, opitch int, trans bool, bias []float64, relu bool, c0, c1 int) {
	b, rp := m.block, m.rplan
	half := m.n / 2
	kl := m.k * m.l
	wi, wo := m.k, 1
	if trans {
		wi, wo = 1, m.k
	}
	v0 := c0 / outBlks
	o0 := c0 - v0*outBlks
	for _, t := range [2]int{0, half} {
		// DC and Nyquist bins of a real signal's spectrum are purely real —
		// in both the weights and the inputs — so these two rows reduce to
		// a real dot product (the imaginary accumulator is exactly zero
		// either way).
		wr := m.wspec.Re[t*kl : (t+1)*kl]
		xr := ws.specs.Re[t*pitch : (t+1)*pitch]
		ar, ai := ws.acc.Re[t*opitch:t*opitch+c1], ws.acc.Im[t*opitch:t*opitch+c1]
		for c, v, o := c0, v0, o0; c < c1; c++ {
			var a float64
			w := o * wo
			for _, x := range xr[v*inBlks : (v+1)*inBlks] {
				a += wr[w] * x
				w += wi
			}
			ar[c], ai[c] = a, 0
			if o++; o == outBlks {
				v, o = v+1, 0
			}
		}
	}
	// The other bins: the whole vectors [va, vb) of the range run their
	// output-block pairs on the bin-product kernel where there is one, and
	// the loops below compute what is left, if anything.
	va, vb := (c0+outBlks-1)/outBlks, c1/outBlks
	pairs := m.pairBins(ws, inBlks, outBlks, pitch, opitch, trans, va, vb)
	for t := 1; t < half && 2*pairs*(vb-va) < c1-c0; t++ {
		wr, wm := m.wspec.Re[t*kl:(t+1)*kl], m.wspec.Im[t*kl:(t+1)*kl]
		xr, xi := ws.specs.Re[t*pitch:(t+1)*pitch], ws.specs.Im[t*pitch:(t+1)*pitch]
		ar, ai := ws.acc.Re[t*opitch:t*opitch+c1], ws.acc.Im[t*opitch:t*opitch+c1]
		// Two output blocks of one vector per pass: they share each load of
		// the input bin and interleave four independent addition chains
		// instead of two serialised on add latency. A last column without a
		// partner (odd outBlks, or the range's edge) is paired with itself.
		// The two forms get a loop body each rather than a ±1 factor on the
		// weight's imaginary part: that extra multiply is free on an idle
		// core and ≈ 6 % of the pass when both hyperthreads run products.
		for c, v := c0, v0; c < c1; v++ {
			first := v * outBlks
			end := min(c1, first+outBlks)
			if v >= va && v < vb {
				c = first + 2*pairs // the kernel's
			}
			x0r, x0i := xr[v*inBlks:(v+1)*inBlks], xi[v*inBlks:(v+1)*inBlks]
			for ; c < end; c += 2 {
				d := min(1, end-1-c)
				wa := (c - first) * wo
				wb := wa + d*wo
				var aR, aI, bR, bI float64
				if trans {
					for i := range x0r {
						yr, yi := x0r[i], x0i[i]
						sr, si := wr[wa], wm[wa]
						aR += sr*yr + si*yi
						aI += sr*yi - si*yr
						sr, si = wr[wb], wm[wb]
						bR += sr*yr + si*yi
						bI += sr*yi - si*yr
						wa, wb = wa+wi, wb+wi
					}
				} else {
					for i := range x0r {
						yr, yi := x0r[i], x0i[i]
						sr, si := wr[wa], wm[wa]
						aR += sr*yr - si*yi
						aI += sr*yi + si*yr
						sr, si = wr[wb], wm[wb]
						bR += sr*yr - si*yi
						bI += sr*yi + si*yr
						wa, wb = wa+wi, wb+wi
					}
				}
				ar[c+d], ai[c+d] = bR, bI
				ar[c], ai[c] = aR, aI
			}
			c = end
		}
	}
	rp.PreInverseSplitManyRev(ws.z, ws.acc, opitch, c0, c1)
	rp.Complex().InverseSplitManyRev(ws.z, opitch, c0, c1)
	fold := b
	if trans {
		fold = m.n - b
	}
	// Two whole output blocks of one vector are stored at once: their
	// columns are adjacent, and so are their runs of dst and of the bias.
	for c, v, o := c0, v0, o0; c < c1; {
		lo := o * b
		hi := min(lo+b, outLen)
		cols := 1
		if c+1 < c1 && o+1 < outBlks && hi+b <= outLen {
			cols, hi = 2, hi+b
		}
		if m.n != b {
			for i := 0; i < cols; i++ {
				foldColumn(ws.z, opitch, c+i, min(b, hi-lo-i*b), fold)
			}
		}
		var blockBias []float64
		if bias != nil {
			blockBias = bias[lo:hi]
		}
		storeColumns(dst[v*outLen+lo:v*outLen+hi], ws.z.Re, ws.z.Im, opitch, c, cols, blockBias, relu)
		if c, o = c+cols, o+cols; o == outBlks {
			v, o = v+1, 0
		}
	}
}

// gradColumns is the weight gradient's output stage over its k·l columns —
// column i·l+j is block (i, j), so its store lands on that block's run of
// dw: per bin, Σᵥ conj(G_vj)·X_vi in batch order, times the exact 1/(4n)
// that the two unpacks and the inverse leave out; then one
// PreInverseSplitManyRev and one InverseSplitManyRev over all columns, and
// the correlation-form fold and store, added into dw.
//
//repro:noalloc
func (m *BlockCirculant) gradColumns(ws *BatchWorkspace, dw []float64, batch, pitch, opitch int) {
	b, rp, kl := m.block, m.rplan, m.k*m.l
	xCol := batch * m.l // first input-spectrum column
	scale := 1 / float64(4*m.n)
	for t := 0; t <= m.n/2; t++ {
		sr, si := ws.specs.Re[t*pitch:(t+1)*pitch], ws.specs.Im[t*pitch:(t+1)*pitch]
		ar, ai := ws.acc.Re[t*opitch:(t+1)*opitch], ws.acc.Im[t*opitch:(t+1)*opitch]
		for c := 0; c < kl; c++ {
			gc, xc := c%m.l, xCol+c/m.l
			var re, im float64
			for v := 0; v < batch; v++ {
				gr, gi := sr[gc], si[gc]
				xr, xi := sr[xc], si[xc]
				re += gr*xr + gi*xi
				im += gr*xi - gi*xr
				gc, xc = gc+m.l, xc+m.k
			}
			ar[c], ai[c] = scale*re, scale*im
		}
	}
	rp.PreInverseSplitManyRev(ws.z, ws.acc, opitch, 0, kl)
	rp.Complex().InverseSplitManyRev(ws.z, opitch, 0, kl)
	for c := 0; c < kl; c += 2 {
		cols := min(2, kl-c)
		if m.n != b {
			for i := 0; i < cols; i++ {
				foldColumn(ws.z, opitch, c+i, b, m.n-b)
			}
		}
		seg := dw[c*b : (c+cols)*b]
		storeColumns(seg, ws.z.Re, ws.z.Im, opitch, c, cols, seg, false) // seg as the bias: dw += the columns
	}
}

// foldColumn adds element t+f of one inverse-transformed column of the
// transposed packed buffer (element e at row e/2, in Re for even e, Im for
// odd) onto element t, for t < cnt: the wrap-around that turns the linear
// product of two zero-padded blocks back into their length-b circular one.
// f ≥ b, so no element is read after it is written.
//
//repro:noalloc
func foldColumn(z fft.SplitSlice, pitch, col, cnt, f int) {
	planes := [2][]float64{z.Re, z.Im}
	for t := 0; t < cnt; t++ {
		s := t + f
		planes[t&1][t/2*pitch+col] += planes[s&1][s/2*pitch+col]
	}
}

// storeColumnsGo stores cols adjacent columns into seg, split into cols
// equal runs, one storeColumn each — storeColumns' reference.
//
//repro:noalloc
func storeColumnsGo(seg, zRe, zIm []float64, pitch, col, cols int, bias []float64, relu bool) {
	l := len(seg) / cols
	for i := 0; i < cols; i++ {
		var colBias []float64
		if bias != nil {
			colBias = bias[i*l : (i+1)*l]
		}
		storeColumn(seg[i*l:(i+1)*l], zRe, zIm, pitch, col+i, colBias, relu)
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
