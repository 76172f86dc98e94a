package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/circulant"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// CircDense is the paper's block-circulant fully-connected layer (§IV-A):
// y = Wᵀ·x + θ with W an in×out block-circulant matrix, evaluated by the
// FFT → component-wise multiplication → IFFT procedure (Algorithm 1) and
// trained by the spectral gradient rules (Algorithm 2).
type CircDense struct {
	In, Out, Block int
	W              *circulant.BlockCirculant
	wParam, bParam *Param
	lastX          *tensor.Tensor
}

// NewCircDense creates a block-circulant FC layer with block size b.
// General (non-multiple) in/out are handled by implicit zero padding as in
// the paper.
func NewCircDense(in, out, block int, rng *rand.Rand) *CircDense {
	w, err := circulant.NewBlockCirculant(in, out, block)
	if err != nil {
		panic(fmt.Sprintf("nn: CircDense: %v", err))
	}
	w.InitRandom(rng)
	l := &CircDense{In: in, Out: out, Block: block, W: w}
	l.wParam = &Param{
		Name:     "w",
		Value:    w.Base,
		Grad:     tensor.New(w.Base.Shape()...),
		OnUpdate: w.Refresh,
	}
	l.bParam = &Param{
		Name:  "theta",
		Value: tensor.New(out),
		Grad:  tensor.New(out),
	}
	return l
}

// Name implements Layer.
func (l *CircDense) Name() string {
	return fmt.Sprintf("circdense(%dx%d,b=%d)", l.In, l.Out, l.Block)
}

// Params implements Layer.
func (l *CircDense) Params() []*Param { return []*Param{l.wParam, l.bParam} }

// CompressionRatio returns dense/stored parameter counts for the weight.
func (l *CircDense) CompressionRatio() float64 { return l.W.CompressionRatio() }

// Bias returns the layer's bias vector θ as a shared slice — the payload
// the program compiler fuses into the spectral kernel's epilogue.
func (l *CircDense) Bias() []float64 { return l.bParam.Value.Data }

// Forward implements Layer. x is [B, In]; the result is [B, Out].
func (l *CircDense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.forward(nil, x, train)
}

// ForwardWS implements WorkspaceForwarder: Forward with the spectral scratch
// drawn from the caller-owned workspace instead of the package pool, and —
// in inference mode — the output placed in the workspace arena, so the
// steady state allocates nothing.
func (l *CircDense) ForwardWS(ws *Workspace, x *tensor.Tensor, train bool) *tensor.Tensor {
	return l.forward(ws, x, train)
}

// forward is one pass of the spectral engine over the whole input, with the
// bias add fused into the inverse transform's store, whatever ws, train and
// the batch size are: a row's output does not depend on how it was batched
// (see circulant.TransMulBatchFusedInto). ws only decides where the scratch
// and the output live.
func (l *CircDense) forward(ws *Workspace, x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: %s got input shape %v", l.Name(), x.Shape()))
	}
	if train {
		l.lastX = x
	}
	batch := batchOf(x)
	var y *tensor.Tensor
	var bws *circulant.BatchWorkspace
	if ws != nil {
		bws = ws.batch
	}
	if ws != nil && !train {
		y = ws.actTensor(batch, l.Out)
	} else {
		y = tensor.New(batch, l.Out)
	}
	l.W.TransMulBatchFusedInto(y.Data, x.Data, batch, bws, l.bParam.Value.Data, false)
	return y
}

// Backward implements Layer: Algorithm 2 in one pass of the spectral engine
// over the whole batch, accumulating the spectral-domain weight gradient
// across the batch before one inverse per weight block
// (circulant.TransMulBatchGradInto).
func (l *CircDense) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if l.lastX == nil {
		panic("nn: CircDense.Backward before Forward(train=true)")
	}
	batch := batchOf(grad)
	dx := tensor.New(batch, l.In)
	l.W.TransMulBatchGradInto(l.wParam.Grad.Data, dx.Data, l.lastX.Data, grad.Data, batch, nil)
	for i := 0; i < batch; i++ {
		for j, g := range grad.Row(i) {
			l.bParam.Grad.Data[j] += g
		}
	}
	return dx
}

// CountOps implements Layer: one FFT-based block-circulant transpose
// mat-vec plus the bias add, per sample.
func (l *CircDense) CountOps(c *ops.Counts) {
	c.Add(l.W.MulVecOps())
	c.Add(ops.Counts{RealAdd: int64(l.Out), MemRead: 8 * int64(l.Out), MemWrite: 8 * int64(l.Out)})
	c.APICalls++
}
