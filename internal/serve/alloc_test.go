package serve

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
)

// TestRegistryRoutedInferZeroAlloc is the serving-path allocation gate: at
// steady state — request pool, batch free-list, worker arena and score
// buffers all warm — a registry-routed InferInto with a caller-owned
// scores buffer must allocate nothing anywhere in the process (the gate is
// AllocsPerRun, which counts every goroutine's allocations, so the
// dispatcher and worker are covered, not just the caller).
//
// The cache stays disabled so every call runs the model; the cached path
// has its own gate, TestCachedInferZeroAlloc.
func TestRegistryRoutedInferZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs without -race")
	}
	rng := rand.New(rand.NewSource(71))
	net := nn.Arch1(rng)
	m, err := model.New("arch1", "v1", net, program.CompileOptions{InShape: []int{256}})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(Options{Workers: 1, MaxBatch: 16})
	defer reg.Close()
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	input := make([]float64, 256)
	for i := range input {
		input[i] = rng.NormFloat64()
	}
	ctx := context.Background()
	var scores []float64

	// Warm every pool on the path: concurrent load exercises batch
	// assembly, then sequential calls settle the single-request shape.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if _, err := reg.Infer(ctx, "arch1", "", input); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := 0; k < 20; k++ {
		res, err := reg.InferInto(ctx, "arch1", "", input, scores)
		if err != nil {
			t.Fatal(err)
		}
		scores = res.Scores
	}

	allocs := testing.AllocsPerRun(50, func() {
		res, err := reg.InferInto(ctx, "arch1", "", input, scores)
		if err != nil {
			t.Fatal(err)
		}
		scores = res.Scores
	})
	if allocs > 0 {
		t.Errorf("steady-state registry-routed InferInto allocates %.0f/op; want 0", allocs)
	}
}

// TestInferIntoReusesBuffer pins the InferInto contract: the returned
// scores live in the caller's buffer (no fresh slice once capacity
// suffices) and match what Infer returns.
func TestInferIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	net := nn.Arch1(rng)
	m, err := model.New("arch1", "v1", net, program.CompileOptions{InShape: []int{256}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewModel(m, Options{Workers: 1, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	input := make([]float64, 256)
	for i := range input {
		input[i] = rng.NormFloat64()
	}
	want, err := srv.Infer(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 0, 64)
	got, err := srv.InferInto(context.Background(), input, buf)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Scores[0] != &buf[:1][0] {
		t.Error("InferInto did not write into the caller's buffer")
	}
	if got.Class != want.Class || len(got.Scores) != len(want.Scores) {
		t.Fatalf("InferInto result %+v differs from Infer %+v", got, want)
	}
	for i := range want.Scores {
		if got.Scores[i] != want.Scores[i] {
			t.Fatalf("score %d: InferInto %g, Infer %g", i, got.Scores[i], want.Scores[i])
		}
	}
}

// TestCachedInferZeroAlloc is the result-cache allocation gate: with the
// cache full, a hit (hash, bit-for-bit compare, scores copied out under
// the shard lock) and a miss (hash, lookup, model pass, insert recycling
// the evicted entry) both allocate nothing anywhere in the process.
func TestCachedInferZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs without -race")
	}
	rng := rand.New(rand.NewSource(74))
	m, err := model.New("arch1", "v1", nn.Arch1(rng), program.CompileOptions{InShape: []int{256}})
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 16
	srv, err := NewModel(m, Options{Workers: 1, MaxBatch: 16, CacheSize: capacity})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Sixteen times more inputs than entries, visited round-robin: by the
	// time an input comes round again its shard has long evicted it.
	inputs := make([][]float64, 16*capacity)
	for i := range inputs {
		inputs[i] = make([]float64, 256)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}
	ctx := context.Background()
	var scores []float64
	next := 0
	infer := func(in []float64) Result {
		res, err := srv.InferInto(ctx, in, scores)
		if err != nil {
			t.Fatal(err)
		}
		scores = res.Scores
		return res
	}
	for k := 0; k < 3*len(inputs); k++ { // fill every shard and size every recycled buffer
		infer(inputs[next%len(inputs)])
		next++
	}

	before := srv.Stats()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		infer(inputs[next%len(inputs)])
		next++
	})
	after := srv.Stats()
	if allocs > 0 {
		t.Errorf("miss + insert on a full cache allocates %.0f/op; want 0", allocs)
	}
	if after.CacheEntries != capacity {
		t.Errorf("cache holds %d entries, want it full at %d", after.CacheEntries, capacity)
	}
	if missed := after.CacheMisses - before.CacheMisses; missed < runs/2 {
		t.Errorf("only %d of %d round-robin lookups missed; the miss path was not what ran", missed, runs)
	}

	hot := inputs[0]
	infer(hot)
	allocs = testing.AllocsPerRun(runs, func() {
		if res := infer(hot); !res.Cached {
			t.Fatal("repeat of the input just served was not a cache hit")
		}
	})
	if allocs > 0 {
		t.Errorf("cache hit allocates %.0f/op; want 0", allocs)
	}
}
