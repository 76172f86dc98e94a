package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

// Reproducibility regression tests: the entire training stack is seeded, so
// identical seeds must give bit-identical models — the property that makes
// every number in EXPERIMENTS.md regenerable.

func trainToy(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	net := NewNetwork(
		NewCircDense(8, 16, 8, rng),
		NewReLU(),
		NewBatchNorm(16),
		NewDense(16, 3, rng),
	)
	x := tensor.New(30, 8).Randn(rng, 1)
	labels := make([]int, 30)
	for i := range labels {
		labels[i] = i % 3
	}
	opt := NewSGD(0.02, 0.9)
	for epoch := 0; epoch < 15; epoch++ {
		net.TrainBatch(x, labels, SoftmaxCrossEntropy{}, opt)
	}
	return net
}

// modelBits lists the bits of every parameter value and BatchNorm running
// statistic, in layer order.
func modelBits(net *Network) []uint64 {
	var out []uint64
	add := func(vs []float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	for _, l := range net.Layers {
		for _, p := range l.Params() {
			add(p.Value.Data)
		}
		if bn, ok := l.(*BatchNorm); ok {
			mean, variance := bn.RunningStats()
			add(*mean)
			add(*variance)
		}
	}
	return out
}

func TestTrainingIsDeterministicUnderSeed(t *testing.T) {
	a := modelBits(trainToy(7))
	if !slices.Equal(a, modelBits(trainToy(7))) {
		t.Error("identical seeds produced different trained models")
	}
	if slices.Equal(a, modelBits(trainToy(8))) {
		t.Error("different seeds produced identical models — seeding is dead")
	}
}

func TestInferenceIsPure(t *testing.T) {
	// Repeated inference must not mutate the model (no hidden state drift).
	rng := rand.New(rand.NewSource(9))
	net := trainToy(3)
	x := tensor.New(5, 8).Randn(rng, 1)
	first := net.Forward(x, false)
	for i := 0; i < 10; i++ {
		net.Forward(x, false)
	}
	if !net.Forward(x, false).AllClose(first, 0) {
		t.Error("inference outputs drifted across repeated calls")
	}
}
