package nn

import (
	"fmt"
	"strings"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// Network is an ordered stack of layers with a training loop, matching the
// feed-forward topologies of the paper's three evaluation architectures.
type Network struct {
	Layers []Layer
}

// NewNetwork builds a network from the given layers.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// Add appends a layer and returns the network for chaining.
func (n *Network) Add(l Layer) *Network {
	n.Layers = append(n.Layers, l)
	return n
}

// Forward runs the full stack on a batched input.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range n.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward propagates ∂L/∂output through the stack, accumulating parameter
// gradients, and returns ∂L/∂input.
func (n *Network) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// NumParams returns the total stored parameter count (the model size the
// paper's compression claims are about).
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Len()
	}
	return total
}

// TrainBatch performs one forward/backward/update step on a batch and
// returns the batch loss.
func (n *Network) TrainBatch(x *tensor.Tensor, labels []int, loss Loss, opt Optimizer) float64 {
	out := n.Forward(x, true)
	l, grad := loss.Forward(out, labels)
	n.Backward(grad)
	opt.Step(n.Params())
	return l
}

// Predict returns the argmax class for each sample in the batch.
func (n *Network) Predict(x *tensor.Tensor) []int {
	return argmaxRows(n.Forward(x, false))
}

// Accuracy returns the fraction of samples whose argmax prediction matches
// the label.
func (n *Network) Accuracy(x *tensor.Tensor, labels []int) float64 {
	preds := n.Predict(x)
	if len(preds) != len(labels) {
		panic(fmt.Sprintf("nn: %d predictions for %d labels", len(preds), len(labels)))
	}
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// CountOps returns the analytical per-sample inference cost of the whole
// stack. A forward pass must have been run first so every layer knows its
// activation sizes.
func (n *Network) CountOps() ops.Counts {
	var c ops.Counts
	for _, l := range n.Layers {
		l.CountOps(&c)
	}
	return c
}

// Summary returns a human-readable architecture description with parameter
// counts, in the spirit of the paper's architecture strings.
func (n *Network) Summary() string {
	var b strings.Builder
	total := 0
	for i, l := range n.Layers {
		pc := 0
		for _, p := range l.Params() {
			pc += p.Value.Len()
		}
		total += pc
		fmt.Fprintf(&b, "%2d  %-36s params=%d\n", i, l.Name(), pc)
	}
	fmt.Fprintf(&b, "total params: %d\n", total)
	return b.String()
}
