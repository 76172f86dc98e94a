package serve

import (
	"context"
	"fmt"
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
// The cache stays disabled: a cache lookup materialises a key string per
// request by design (exact-input keying), which is the documented cost of
// enabling it.
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

// TestCacheSharding covers the shard layout: capacities partition across
// shards (summing to the configured total), tiny caches collapse to fewer
// shards, keys route deterministically, and aggregated counters reconcile
// with traffic.
func TestCacheSharding(t *testing.T) {
	for _, tc := range []struct{ capacity, wantShards int }{
		{1, 1}, {2, 2}, {3, 2}, {15, 8}, {16, 16}, {1024, 16},
	} {
		c := newResultCache(tc.capacity)
		if len(c.shards) != tc.wantShards {
			t.Errorf("capacity %d: %d shards, want %d", tc.capacity, len(c.shards), tc.wantShards)
		}
		total := 0
		for i := range c.shards {
			total += c.shards[i].cap
		}
		if total != tc.capacity {
			t.Errorf("capacity %d: shard capacities sum to %d", tc.capacity, total)
		}
	}

	// Fill a sharded cache far beyond capacity: the entry count must never
	// exceed the configured total, and every key must be found in the
	// shard it hashes to (get after add).
	const capacity = 32
	c := newResultCache(capacity)
	for i := 0; i < 10*capacity; i++ {
		key := cacheKey(fmt.Sprintf("m@v%d", i), []float64{float64(i)})
		sh := c.shard(key)
		sh.add(key, Result{Class: i})
		if res, ok := sh.get(key); !ok || res.Class != i {
			t.Fatalf("key %d: just-added entry not found (ok=%v)", i, ok)
		}
	}
	hits, misses, entries := c.counters()
	if entries > capacity {
		t.Errorf("cache holds %d entries, capacity %d", entries, capacity)
	}
	if hits != 10*capacity || misses != 0 {
		t.Errorf("counters hits=%d misses=%d, want %d/0", hits, misses, 10*capacity)
	}
}

// TestCacheShardedConcurrent hammers one cache from many goroutines with
// overlapping keys (hits, misses, evictions in every shard) and checks the
// aggregate counters reconcile; run under -race in CI, this is the
// regression test for the shard conversion.
func TestCacheShardedConcurrent(t *testing.T) {
	const goroutines, iters, distinct = 8, 500, 64
	c := newResultCache(distinct / 2) // force evictions
	keys := make([]string, distinct)
	for i := range keys {
		keys[i] = cacheKey("m@v1", []float64{float64(i)})
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				k := keys[rng.Intn(distinct)]
				sh := c.shard(k)
				if _, ok := sh.get(k); !ok {
					sh.miss()
					sh.add(k, Result{Class: i})
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, entries := c.counters()
	if hits+misses != goroutines*iters {
		t.Errorf("hits %d + misses %d != %d lookups", hits, misses, goroutines*iters)
	}
	if entries > distinct/2 {
		t.Errorf("cache holds %d entries, capacity %d", entries, distinct/2)
	}
}
