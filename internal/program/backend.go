package program

import (
	"fmt"

	"repro/internal/circulant"
	"repro/internal/fft"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Backend is a pluggable kernel set a compiled program binds to. The
// three implementations — Float64Split, DenseRef and Int16Spectral —
// cover the float spectral serving path, the uncompressed reference and
// the paper's embedded fixed-point deployment; the lowering hook is
// unexported so the op set and the kernel ABI can evolve together.
type Backend interface {
	// Name identifies the backend in listings and version strings.
	Name() string
	// lower rewrites the fused op graph for this backend's kernel set
	// (e.g. expanding structured products, inserting fixed-point
	// boundary nodes) and attaches per-op kernel state.
	lower(p *Program) error
}

// float64Split is the default backend: typed ops execute directly on the
// spectral engine (circulant.TransMulBatch*Into — the one product of a
// power-of-two block-circulant matrix at every batch size, batch 1
// included) and the dense MatMulInto path. Every kernel is row-independent,
// so a sample's scores are the same bits alone and inside any batch
// (TestRunBatchInvariantBits); the interpreted Network.ForwardWS runs the
// same engine and is the oracle compiled programs are held within 1e-12
// of.
type float64Split struct{}

// Float64Split returns the default float backend over the split-complex
// spectral kernels.
func Float64Split() Backend { return float64Split{} }

// Name implements Backend.
func (float64Split) Name() string { return "float64-split" }

func (float64Split) lower(p *Program) error { return nil }

// denseRef executes every structured product as an explicit dense
// matmul: the uncompressed O(n²) reference arm, useful for A/B pairs and
// as a numerically independent oracle.
type denseRef struct{}

// DenseRef returns the dense reference backend.
func DenseRef() Backend { return denseRef{} }

// Name implements Backend.
func (denseRef) Name() string { return "dense" }

func (denseRef) lower(p *Program) error {
	for i := range p.ops {
		o := &p.ops[i]
		if o.kind == KindBlockCircMul {
			// y = Wᵀx equals the row-vector product x·W, so the expanded
			// rows×cols matrix drops into the MatMul kernel unchanged.
			o.w = o.circ.Dense()
			o.circ = nil
			o.kind = KindMatMul
		}
	}
	return nil
}

// int16Spectral is the paper's fixed-point deployment: every product op
// runs on int16 weights and activations with int64 accumulators,
// generalising quant.FixedPointDense to block-circulant layers and whole
// batches. Weights are quantised once at compile time (a frozen
// snapshot); activations are quantised per sample by an explicit
// KindQuantize node, and a KindDequantize node applies the combined
// per-layer rescale with the fused bias and rectifier.
//
// Block-circulant products keep the paper's procedure — transform, multiply
// bin by bin against stored weight spectra, accumulate in the transform
// domain, one inverse per output block — in exact integer arithmetic: the
// transform is number-theoretic (fft.NTTPlan, modulo 2⁶⁴ − 2³² + 1), each
// layer stores k·l·n 64-bit spectrum words derived from its quantised
// defining vectors (circSpectra), and because no accumulator can reach the
// modulus the result is the time-domain integer product itself, bit for
// bit, at every supported precision — exact by range, with no error bound
// to check and nothing to fall back to.
type int16Spectral struct {
	weightBits, actBits int
}

// Int16Spectral returns the fixed-point backend at the given weight and
// activation precisions (2..16 bits each, sign included). Precision is
// validated at Compile time.
func Int16Spectral(weightBits, actBits int) Backend {
	return int16Spectral{weightBits: weightBits, actBits: actBits}
}

// Name implements Backend.
func (b int16Spectral) Name() string {
	return fmt.Sprintf("int16-spectral-w%da%d", b.weightBits, b.actBits)
}

func (b int16Spectral) lower(p *Program) error {
	if b.actBits < 2 || b.actBits > 16 {
		return fmt.Errorf("program: activation bits %d outside [2,16]", b.actBits)
	}
	var out []op
	next := 0
	for i := range p.ops {
		next = maxInt(next, p.ops[i].out)
	}
	next++
	for i := range p.ops {
		o := p.ops[i]
		switch o.kind {
		case KindBlockCircMul, KindMatMul:
		default:
			out = append(out, o)
			continue
		}
		// Quantise the weights once. Block-circulant ops quantise the
		// defining vectors (the stored parameters), keeping the
		// compressed representation; dense ops quantise the matrix.
		var wt *tensor.Tensor
		if o.kind == KindMatMul {
			wt = o.w
		} else {
			wt = o.circ.Base
		}
		qw, err := quant.Quantize(wt, b.weightBits)
		if err != nil {
			return fmt.Errorf("program: %w", err)
		}
		// The bias follows the weights through the fixed-point format
		// (quantise, then pre-dequantise at compile time so the epilogue
		// adds plain floats), matching quant.FixedPointDense.
		var bias []float64
		if o.fuseBias {
			qb, err := quant.Quantize(tensor.FromSlice(o.bias, len(o.bias)), b.weightBits)
			if err != nil {
				return fmt.Errorf("program: %w", err)
			}
			bias = qb.Dequantize().Data
		}
		q := op{
			kind:     KindQuantize,
			in:       o.in,
			out:      next,
			inShape:  o.inShape,
			outShape: o.inShape,
			actBits:  b.actBits,
		}
		next++
		mul := o
		mul.quantized = true
		mul.qw = qw
		if o.kind != KindMatMul {
			mul.ntt, mul.qspec = circSpectra(o.circ, qw)
		}
		mul.in = q.out
		mul.out = next
		mul.bias = nil
		mul.fuseBias = false
		mul.fuseReLU = false
		next++
		deq := op{
			kind:     KindDequantize,
			in:       mul.out,
			out:      o.out,
			inShape:  o.outShape,
			outShape: o.outShape,
			qw:       qw,
			bias:     bias,
			fuseBias: o.fuseBias,
			fuseReLU: o.fuseReLU,
		}
		out = append(out, q, mul, deq)
	}
	p.ops = out
	return nil
}

// circSpectra derives the run-time operand of the integer circulant
// product (execQCirc) from the quantised defining vectors: the plan of the
// transform length n and, for each of the k·l blocks, n words of weight
// spectrum, laid out output-block-major ([l][k][n]) so one output block
// reads its k spectra contiguously.
//
// The transpose product is a correlation, (Cᵀx)_t = Σ_s w[(s−t) mod b]·x_s,
// i.e. the cyclic convolution of x with the index-reversed vector
// w⁻[t] = w[(b−t) mod b] — so w⁻ is what gets transformed, scaled by n⁻¹
// on the way in so the run-time inverse needs no scaling pass. n is b when
// b is a power of two; otherwise the next power of two ≥ 2b−1, long enough
// that the zero-padded cyclic product is the linear convolution execQCirc
// folds back to length b.
func circSpectra(m *circulant.BlockCirculant, qw *quant.QTensor) (*fft.NTTPlan, []uint64) {
	k, l := m.Grid()
	b := m.BlockSize()
	n := b
	if !fft.IsPow2(b) {
		n = fft.NextPow2(2*b - 1)
	}
	plan := fft.NTTPlanFor(n)
	spec := make([]uint64, k*l*n)
	for i := 0; i < k; i++ {
		for j := 0; j < l; j++ {
			w := qw.Data[(i*l+j)*b : (i*l+j+1)*b]
			s := spec[(j*k+i)*n : (j*k+i+1)*n]
			for t, wt := range w {
				s[(b-t)%b] = fft.NTTMul(fft.NTTFromInt64(int64(wt)), plan.InvN())
			}
			plan.Forward(s)
		}
	}
	return plan, spec
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
