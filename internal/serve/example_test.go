package serve_test

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/serve"
)

// Example shows the serving subsystem end to end: adapt a trained network
// as a Model, stand up a batched server with a result cache, and answer
// requests. In production the model comes from a cmd/train bundle via
// engine.Engine.Model; here a fresh Arch-1 keeps the example
// self-contained.
func Example() {
	m, err := model.New("mnist", "v1",
		nn.Arch1(rand.New(rand.NewSource(1))),
		program.CompileOptions{InShape: []int{256}}) // Arch-1: 16×16 grey images, flattened
	if err != nil {
		panic(err)
	}

	srv, err := serve.NewModel(m, serve.Options{
		Workers:   2,
		MaxBatch:  8,
		CacheSize: 128,
	})
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	input := make([]float64, 256)
	for i := range input {
		input[i] = 0.5
	}
	res, err := srv.Infer(context.Background(), input)
	if err != nil {
		panic(err)
	}
	fmt.Printf("classes: %d, cached: %v\n", len(res.Scores), res.Cached)

	// A repeated query is answered from the LRU cache.
	res, err = srv.Infer(context.Background(), input)
	if err != nil {
		panic(err)
	}
	fmt.Printf("repeat cached: %v\n", res.Cached)
	// Output:
	// classes: 10, cached: false
	// repeat cached: true
}

// ExampleRegistry shows the multi-model registry end to end: register two
// versions of a model, canary the new one behind a 90/10 weighted A/B
// split, then hot-swap it to latest and retire the old version — all while
// the registry keeps serving.
func ExampleRegistry() {
	reg := serve.NewRegistry(serve.Options{
		Workers:  2,
		MaxBatch: 8,
		MaxDelay: 100 * time.Microsecond,
	})
	defer reg.Close()

	// Two builds of the same model name. In production these come from
	// cmd/train bundles via engine.Engine.Model; fresh Arch-1 weights keep
	// the example self-contained.
	v1, err := model.New("mnist", "v1", nn.Arch1(rand.New(rand.NewSource(1))), program.CompileOptions{InShape: []int{256}})
	if err != nil {
		panic(err)
	}
	v2, err := model.New("mnist", "v2", nn.Arch1(rand.New(rand.NewSource(2))), program.CompileOptions{InShape: []int{256}})
	if err != nil {
		panic(err)
	}
	if err := reg.Register(v1); err != nil {
		panic(err)
	}
	if err := reg.Register(v2); err != nil {
		panic(err)
	}

	// Canary: 90% of routed traffic stays on v1, 10% tries v2. The split
	// is exact (smooth weighted round-robin), not sampled.
	if err := reg.SetWeights("mnist", map[string]float64{"v1": 0.9, "v2": 0.1}); err != nil {
		panic(err)
	}
	input := make([]float64, 256)
	for i := 0; i < 100; i++ {
		if _, err := reg.Infer(context.Background(), "mnist", "", input); err != nil {
			panic(err)
		}
	}
	s1, _ := reg.Stats("mnist", "v1")
	s2, _ := reg.Stats("mnist", "v2")
	fmt.Printf("canary split: v1=%d v2=%d\n", s1.Requests, s2.Requests)

	// Promote v2: clear the split (v2 is already latest — it registered
	// last) and retire v1. Routed traffic hot-swaps without an error.
	if err := reg.SetWeights("mnist", nil); err != nil {
		panic(err)
	}
	if err := reg.Retire("mnist", "v1"); err != nil {
		panic(err)
	}
	res, err := reg.Infer(context.Background(), "mnist", "", input)
	if err != nil {
		panic(err)
	}
	fmt.Printf("after swap: %d models, %d classes\n", len(reg.Models()), len(res.Scores))
	// Output:
	// canary split: v1=90 v2=10
	// after swap: 1 models, 10 classes
}
