package serve

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
)

// TestQuantizedServingAccuracy is the fixed-point acceptance gate: a
// trained MNIST FC network registered twice — the float build and its
// 12-bit Int16Spectral build — must both serve through the Registry end
// to end, with the quantised build's top-1 accuracy within 1% of the
// float build's. The quantised path's dynamic activation scale is per
// sample, so results do not depend on how the scheduler coalesces
// requests into batches.
func TestQuantizedServingAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	train := dataset.Resize(dataset.SyntheticMNIST(600, 5), 11, 11).Flatten()
	test := dataset.Resize(dataset.SyntheticMNIST(200, 6), 11, 11).Flatten()
	net := nn.Arch2(rng)
	opt := nn.NewSGD(0.05, 0.9)
	for epoch := 0; epoch < 25; epoch++ {
		for lo := 0; lo < train.Len(); lo += 50 {
			x, y := train.Batch(lo, 50)
			net.TrainBatch(x, y, nn.SoftmaxCrossEntropy{}, opt)
		}
	}

	float64Build, err := model.New("mnist", "v1", net, program.CompileOptions{InShape: []int{121}})
	if err != nil {
		t.Fatal(err)
	}
	q12Build, err := model.New("mnist", "v1-q12", net, program.CompileOptions{InShape: []int{121}, Backend: program.Int16Spectral(12, 12)})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(Options{Workers: 1, MaxBatch: 4, CacheSize: 0})
	defer reg.Close()
	if err := reg.Register(float64Build); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(q12Build); err != nil {
		t.Fatal(err)
	}

	accuracy := func(version string) float64 {
		ctx := context.Background()
		correct := 0
		for i := 0; i < test.Len(); i++ {
			x, _ := test.Batch(i, 1)
			res, err := reg.Infer(ctx, "mnist", version, x.Row(0))
			if err != nil {
				t.Fatalf("%s sample %d: %v", version, i, err)
			}
			if nn.Argmax(res.Scores) == test.Labels[i] {
				correct++
			}
		}
		return float64(correct) / float64(test.Len())
	}

	accFloat := accuracy("v1")
	accQ12 := accuracy("v1-q12")
	t.Logf("served top-1: float %.3f, q12 %.3f", accFloat, accQ12)
	if accFloat < 0.75 {
		t.Fatalf("float training too weak to compare: %.3f", accFloat)
	}
	if diff := accFloat - accQ12; diff > 0.01 {
		t.Errorf("12-bit build lost %.3f top-1 versus float (%.3f → %.3f); budget is 1%%",
			diff, accFloat, accQ12)
	}
}
