package nn

import (
	"fmt"
	"math"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// BatchNorm normalises each feature over the batch (and, for image
// activations, over the spatial positions), then applies a learned
// scale/shift. It tracks running statistics for inference. Provided as the
// training-stability extension used by the Arch-3 ablations.
type BatchNorm struct {
	Features int
	Momentum float64
	Epsilon  float64

	gamma, beta *Param
	runMean     []float64
	runVar      []float64
	lastXHat    *tensor.Tensor
	lastStd     []float64
	lastShape   []int
	lastPerFeat int
	lastN       int
}

// NewBatchNorm creates a batch-normalisation layer over the trailing
// feature dimension of size features.
func NewBatchNorm(features int) *BatchNorm {
	if features < 1 {
		panic(fmt.Sprintf("nn: BatchNorm features %d", features))
	}
	b := &BatchNorm{
		Features: features,
		Momentum: 0.9,
		Epsilon:  1e-5,
		runMean:  make([]float64, features),
		runVar:   make([]float64, features),
	}
	for i := range b.runVar {
		b.runVar[i] = 1
	}
	g := tensor.New(features)
	g.Fill(1)
	b.gamma = &Param{Name: "gamma", Value: g, Grad: tensor.New(features)}
	b.beta = &Param{Name: "beta", Value: tensor.New(features), Grad: tensor.New(features)}
	return b
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return fmt.Sprintf("batchnorm(%d)", b.Features) }

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.gamma, b.beta} }

// RunningStats returns the slice headers holding the inference statistics,
// so a parameter file can carry them next to γ and β and a loader can
// overwrite or rebind them.
func (b *BatchNorm) RunningStats() (mean, variance *[]float64) { return &b.runMean, &b.runVar }

// Forward implements Layer. The trailing dimension must equal Features;
// all leading dimensions (batch, and spatial for images) are reduced over.
func (b *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	shape := x.Shape()
	if shape[len(shape)-1] != b.Features {
		panic(fmt.Sprintf("nn: %s got trailing dimension %d", b.Name(), shape[len(shape)-1]))
	}
	groups := x.Len() / b.Features
	out := tensor.New(shape...)
	b.lastShape = shape
	b.lastN = sampleLen(x)
	if !train {
		for i := 0; i < groups; i++ {
			for f := 0; f < b.Features; f++ {
				idx := i*b.Features + f
				xh := (x.Data[idx] - b.runMean[f]) / math.Sqrt(b.runVar[f]+b.Epsilon)
				out.Data[idx] = b.gamma.Value.Data[f]*xh + b.beta.Value.Data[f]
			}
		}
		return out
	}
	mean := make([]float64, b.Features)
	varr := make([]float64, b.Features)
	for i := 0; i < groups; i++ {
		for f := 0; f < b.Features; f++ {
			mean[f] += x.Data[i*b.Features+f]
		}
	}
	for f := range mean {
		mean[f] /= float64(groups)
	}
	for i := 0; i < groups; i++ {
		for f := 0; f < b.Features; f++ {
			d := x.Data[i*b.Features+f] - mean[f]
			varr[f] += d * d
		}
	}
	b.lastStd = make([]float64, b.Features)
	for f := range varr {
		varr[f] /= float64(groups)
		b.lastStd[f] = math.Sqrt(varr[f] + b.Epsilon)
		b.runMean[f] = b.Momentum*b.runMean[f] + (1-b.Momentum)*mean[f]
		b.runVar[f] = b.Momentum*b.runVar[f] + (1-b.Momentum)*varr[f]
	}
	b.lastXHat = tensor.New(shape...)
	b.lastPerFeat = groups
	for i := 0; i < groups; i++ {
		for f := 0; f < b.Features; f++ {
			idx := i*b.Features + f
			xh := (x.Data[idx] - mean[f]) / b.lastStd[f]
			b.lastXHat.Data[idx] = xh
			out.Data[idx] = b.gamma.Value.Data[f]*xh + b.beta.Value.Data[f]
		}
	}
	return out
}

// Backward implements Layer with the standard batch-norm gradient.
func (b *BatchNorm) Backward(grad *tensor.Tensor) *tensor.Tensor {
	if b.lastXHat == nil {
		panic("nn: BatchNorm.Backward before Forward(train=true)")
	}
	groups := b.lastPerFeat
	n := float64(groups)
	dx := tensor.New(b.lastShape...)
	sumG := make([]float64, b.Features)
	sumGX := make([]float64, b.Features)
	for i := 0; i < groups; i++ {
		for f := 0; f < b.Features; f++ {
			idx := i*b.Features + f
			g := grad.Data[idx]
			sumG[f] += g
			sumGX[f] += g * b.lastXHat.Data[idx]
		}
	}
	for f := 0; f < b.Features; f++ {
		b.beta.Grad.Data[f] += sumG[f]
		b.gamma.Grad.Data[f] += sumGX[f]
	}
	for i := 0; i < groups; i++ {
		for f := 0; f < b.Features; f++ {
			idx := i*b.Features + f
			g := grad.Data[idx]
			dx.Data[idx] = b.gamma.Value.Data[f] / b.lastStd[f] *
				(g - sumG[f]/n - b.lastXHat.Data[idx]*sumGX[f]/n)
		}
	}
	return dx
}

// CountOps implements Layer: a handful of real ops per element.
func (b *BatchNorm) CountOps(c *ops.Counts) {
	n := int64(b.lastN)
	c.Add(ops.Counts{RealMul: 2 * n, RealAdd: 2 * n, MemRead: 8 * n, MemWrite: 8 * n})
	c.APICalls++
}
