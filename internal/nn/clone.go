package nn

import (
	"fmt"
	"math/rand"
)

// Clone deep-copies the network: each layer is rebuilt by its own
// constructor from the source's configuration, then takes the source's
// parameter values (firing OnUpdate, so cached spectra are re-derived) and
// BatchNorm running statistics. Clones share no mutable state:
// model.Replicate hands one to each serving replica whose program still
// interprets a layer with per-call state. Layers are seeded from a fixed
// source; inference consumes no randomness.
func (n *Network) Clone() (*Network, error) {
	rng := rand.New(rand.NewSource(0))
	out := NewNetwork()
	for _, l := range n.Layers {
		c, err := cloneLayer(l, rng)
		if err != nil {
			return nil, fmt.Errorf("nn: cloning network: %w", err)
		}
		src, dst := l.Params(), c.Params()
		for i, p := range dst {
			copy(p.Value.Data, src[i].Value.Data)
			if p.OnUpdate != nil {
				p.OnUpdate()
			}
		}
		out.Add(c)
	}
	return out, nil
}

// cloneLayer constructs a fresh layer with l's configuration.
func cloneLayer(l Layer, rng *rand.Rand) (Layer, error) {
	switch v := l.(type) {
	case *Dense:
		return NewDense(v.In, v.Out, rng), nil
	case *CircDense:
		return NewCircDense(v.In, v.Out, v.Block, rng), nil
	case *Conv2D:
		return NewConv2D(v.Geom, rng), nil
	case *CircConv2D:
		return NewCircConv2D(v.Geom, v.Block, rng), nil
	case *FFTConv2D:
		return NewFFTConv2D(v.Geom, rng)
	case *ReLU:
		return NewReLU(), nil
	case *Sigmoid:
		return NewSigmoid(), nil
	case *Tanh:
		return NewTanh(), nil
	case *Softmax:
		return NewSoftmax(), nil
	case *MaxPool:
		return NewMaxPool(v.Size), nil
	case *AvgPool:
		return NewAvgPool(v.Size), nil
	case *Flatten:
		return NewFlatten(), nil
	case *Dropout:
		return NewDropout(v.Rate, rng.Float64), nil
	case *BatchNorm:
		bn := NewBatchNorm(v.Features)
		bn.Momentum, bn.Epsilon = v.Momentum, v.Epsilon
		copy(bn.runMean, v.runMean)
		copy(bn.runVar, v.runVar)
		return bn, nil
	default:
		return nil, fmt.Errorf("cannot clone layer type %T", l)
	}
}
