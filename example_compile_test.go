package repro_test

import (
	"context"
	"fmt"
	"math/rand"

	"repro"
)

// ExampleCompile walks the compiled deployment story: a trained network
// lowered to a typed op program (the fusion pass folds each bias add and
// rectifier into its producing kernel), then the same network registered
// twice — the float build and its 12-bit fixed-point build — and served
// side by side for an A/B comparison.
func ExampleCompile() {
	rng := rand.New(rand.NewSource(1))
	net := repro.Arch1(rng)

	prog, err := repro.Compile(net, repro.CompileOptions{InShape: []int{256}})
	if err != nil {
		panic(err)
	}
	for _, op := range prog.Ops() {
		fmt.Println(op)
	}

	// Register the float build and its quantised sibling under one name.
	reg := repro.NewRegistry(repro.ServeOptions{Workers: 1, MaxBatch: 4})
	defer reg.Close()
	floatBuild, err := repro.NewModel("mnist", "v1", net, repro.CompileOptions{InShape: []int{256}})
	if err != nil {
		panic(err)
	}
	q12Build, err := repro.NewModel("mnist", "v1-q12", net,
		repro.CompileOptions{InShape: []int{256}, Backend: repro.BackendInt16(12, 12)})
	if err != nil {
		panic(err)
	}
	if err := reg.Register(floatBuild); err != nil {
		panic(err)
	}
	if err := reg.Register(q12Build); err != nil {
		panic(err)
	}
	// Route 90% of anonymous traffic to the float build, 10% to the
	// fixed-point build; pinned requests still address either directly.
	if err := reg.SetWeights("mnist", map[string]float64{"v1": 0.9, "v1-q12": 0.1}); err != nil {
		panic(err)
	}

	x := make([]float64, 256)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	ctx := context.Background()
	a, err := reg.Infer(ctx, "mnist", "v1", x)
	if err != nil {
		panic(err)
	}
	b, err := reg.Infer(ctx, "mnist", "v1-q12", x)
	if err != nil {
		panic(err)
	}
	fmt.Printf("float and q12 builds predict the same class: %v\n",
		argmax(a.Scores) == argmax(b.Scores))
	// Output:
	// BlockCircMul(256×128,b=64)+bias+relu
	// BlockCircMul(128×128,b=64)+bias+relu
	// MatMul(128×10)+bias
	// float and q12 builds predict the same class: true
}

func argmax(scores []float64) int {
	best := 0
	for i, v := range scores {
		if v > scores[best] {
			best = i
		}
	}
	return best
}
