// Package program compiles trained networks into typed inference
// programs — the compiled deployment story of the paper. A Program is a
// linear graph of typed ops (spectral block-circulant products, dense
// matmuls, epilogues, layout changes, fixed-point boundaries) produced by
// Compile from an *nn.Network, run through a pass pipeline (static shape
// inference, epilogue fusion, dead-op elimination, arena planning) and
// bound to one of three backends:
//
//   - Float64Split — the split-complex spectral kernels the serving stack
//     already runs (circulant.TransMulBatchFusedInto and friends);
//   - DenseRef — every structured product expanded to an explicit dense
//     matmul, the uncompressed reference arm;
//   - Int16Spectral — the paper's embedded fixed-point deployment:
//     int16 weights and activations, int64 accumulators, per-layer
//     rescale, generalising quant.FixedPointDense to block-circulant
//     layers and whole batches; circulant products run Algorithm 1 over an
//     exact integer transform (fft.NTTPlan) and return the time-domain
//     integer product bit for bit.
//
// A compiled Program owns its execution state (a ping-pong float arena,
// integer scratch, FFT batch workspaces), so a warm Run allocates
// nothing; it must be used by one goroutine at a time, like nn.Workspace.
// The interpreted path (Network.ForwardWS) stays as the equivalence
// oracle: compiled Float64Split programs agree with it within 1e-12.
package program

import (
	"fmt"
	"strings"

	"repro/internal/circulant"
	"repro/internal/fft"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Kind enumerates the typed op set of the IR.
type Kind uint8

const (
	// KindInvalid is the zero Kind; no compiled op carries it.
	KindInvalid Kind = iota
	// KindBlockCircMul is the paper's FFT-based block-circulant transpose
	// product y = Wᵀx, the FC bottleneck. A 1×1 grid (the Cheng et al.
	// full-circulant case) is the same op; its listing shows the grid.
	KindBlockCircMul
	// KindMatMul is a dense product y = x·W (the uncompressed head and
	// the DenseRef lowering of the structured kinds).
	KindMatMul
	// KindBiasAdd adds a per-feature bias. Normally fused into the
	// producing product op (or the Dequantize epilogue) by the fusion
	// pass; survives only when its producer cannot absorb it.
	KindBiasAdd
	// KindReLU is the rectifier ψ(x) = max(x, 0). Normally fused like
	// KindBiasAdd.
	KindReLU
	// KindSoftmax normalises each sample row to a distribution.
	KindSoftmax
	// KindPack flattens a multi-axis per-sample shape to a vector — a
	// zero-cost view change on the row-major layout (nn.Flatten).
	KindPack
	// KindUnpack is the inverse view change, vector back to a multi-axis
	// shape. Lowering never emits adjacent Pack/Unpack pairs itself, and
	// dead-op elimination cancels any produced by rewrites.
	KindUnpack
	// KindQuantize converts float activations to int16 at the op's
	// activation precision with one dynamic symmetric scale per sample
	// row (never per batch: a served sample's scores must not depend on
	// what the scheduler coalesced around it) — the fixed-point entry
	// boundary inserted by the Int16Spectral backend in front of every
	// integer product.
	KindQuantize
	// KindDequantize converts int64 accumulators back to float64,
	// applying the combined activation×weight rescale; the fusion-placed
	// bias add and rectifier ride along, so it is also the integer path's
	// epilogue.
	KindDequantize
	// KindLayer is the opaque fallback: a layer with no typed lowering
	// (convolutions, pooling, batchnorm, saturating activations) executed
	// through its own forward pass. Typed passes treat it as a barrier.
	KindLayer
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBlockCircMul:
		return "BlockCircMul"
	case KindMatMul:
		return "MatMul"
	case KindBiasAdd:
		return "BiasAdd"
	case KindReLU:
		return "ReLU"
	case KindSoftmax:
		return "Softmax"
	case KindPack:
		return "Pack"
	case KindUnpack:
		return "Unpack"
	case KindQuantize:
		return "Quantize"
	case KindDequantize:
		return "Dequantize"
	case KindLayer:
		return "Layer"
	}
	return "Invalid"
}

// Slot classes for planned op outputs (op.slot). Non-negative values index
// the float ping-pong arena.
const (
	slotOwned = -1 // the op allocates/owns its output (KindLayer)
	slotView  = -2 // the op aliases its input's storage (Pack/Unpack)
	slotI16   = -3 // int16 activation scratch (Quantize)
	slotI64   = -4 // int64 accumulator scratch (integer products)
)

// op is one node of the compiled graph. The graph is a single chain —
// every evaluation architecture here is sequential — so each op consumes
// the value produced by the previous live op; in/out ids exist for
// listings and pass bookkeeping.
type op struct {
	kind     Kind
	in, out  int   // value ids; value 0 is the program input
	inShape  []int // per-sample shapes (batch axis excluded)
	outShape []int

	// Payload, by kind.
	circ  *circulant.BlockCirculant // BlockCircMul
	w     *tensor.Tensor            // MatMul weight (in×out)
	bias  []float64                 // BiasAdd, or fused epilogue bias
	layer nn.Layer                  // KindLayer fallback

	// Fusion state: epilogues absorbed into this op.
	fuseBias bool
	fuseReLU bool

	// Int16Spectral state: integer product flag and quantised weights.
	quantized bool
	qw        *quant.QTensor // int16 weights (dense matrix or circulant base)
	actBits   int            // Quantize precision
	// Integer circulant products run in the transform domain (execQCirc):
	// ntt is the plan of the block's transform length n, qspec the k·l
	// weight spectra of n words each, output-block-major ([l][k][n]),
	// derived from qw once by circSpectra and immutable afterwards.
	ntt   *fft.NTTPlan
	qspec []uint64

	dead bool // marked by fusion / DCE, swept before binding

	// Execution plan (filled by planArena).
	slot int           // output placement: float slot 0/1 or a slot* class
	dims []int         // output dims with a leading batch placeholder
	t    tensor.Tensor // reusable output tensor header
}

// flatLen returns the number of elements of a per-sample shape.
//
//repro:noalloc
func flatLen(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// OpInfo describes one compiled op for listings and tests.
type OpInfo struct {
	// Kind is the op's type.
	Kind Kind
	// InShape and OutShape are the per-sample activation shapes.
	InShape, OutShape []int
	// FusedBias and FusedReLU report epilogues absorbed by the fusion
	// pass.
	FusedBias, FusedReLU bool
	// Quantized marks integer products of the Int16Spectral backend.
	Quantized bool
	// Detail is a human-readable payload summary (matrix geometry, the
	// fallback layer's name, quantisation precision).
	Detail string
}

// String renders one op like "BlockCircMul(256×128,b=64)+bias+relu".
func (o OpInfo) String() string {
	var b strings.Builder
	b.WriteString(o.Kind.String())
	if o.Quantized {
		b.WriteString("[i16]")
	}
	if o.Detail != "" {
		fmt.Fprintf(&b, "(%s)", o.Detail)
	}
	if o.FusedBias {
		b.WriteString("+bias")
	}
	if o.FusedReLU {
		b.WriteString("+relu")
	}
	return b.String()
}

// Ops returns the compiled op listing in execution order.
func (p *Program) Ops() []OpInfo {
	out := make([]OpInfo, len(p.ops))
	for i := range p.ops {
		o := &p.ops[i]
		info := OpInfo{
			Kind:      o.kind,
			InShape:   append([]int(nil), o.inShape...),
			OutShape:  append([]int(nil), o.outShape...),
			FusedBias: o.fuseBias,
			FusedReLU: o.fuseReLU,
			Quantized: o.quantized,
		}
		switch o.kind {
		case KindBlockCircMul:
			info.Detail = fmt.Sprintf("%d×%d,b=%d", o.circ.Rows(), o.circ.Cols(), o.circ.BlockSize())
		case KindMatMul:
			info.Detail = fmt.Sprintf("%d×%d", o.w.Dim(0), o.w.Dim(1))
		case KindLayer:
			info.Detail = o.layer.Name()
		case KindQuantize:
			info.Detail = fmt.Sprintf("act=%db", o.actBits)
		}
		out[i] = info
	}
	return out
}

// String renders the whole program, one op per line.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program[%s] in=%v out=%d\n", p.backend.Name(), p.inShape, p.outDim)
	for i, info := range p.Ops() {
		fmt.Fprintf(&b, "%3d  %-40s %v -> %v\n", i, info.String(), info.InShape, info.OutShape)
	}
	return b.String()
}
