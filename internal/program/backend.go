package program

import (
	"fmt"

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
		if o.kind == KindCircMul || o.kind == KindBlockCircMul {
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
// runs on int16 weights and activations with int64 accumulation,
// generalising quant.FixedPointDense to block-circulant layers and whole
// batches. Weights are quantised once at compile time (a frozen
// snapshot); activations are quantised per sample by an explicit
// KindQuantize node, and a KindDequantize node applies the combined
// per-layer rescale with the fused bias and rectifier.
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
		case KindCircMul, KindBlockCircMul, KindMatMul:
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
