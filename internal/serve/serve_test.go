package serve

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/tensor"
)

// testModel builds a small block-circulant network in the shape of the
// paper's Arch-1 (scaled down so the race-instrumented load test stays
// fast).
func testModel(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewNetwork(
		nn.NewCircDense(64, 32, 16, rng),
		nn.NewReLU(),
		nn.NewDense(32, 10, rng),
	)
}

// newNetServer serves a bare network under "default@v1": the scheduler
// tests address one Server directly, without a Registry in front.
func newNetServer(net *nn.Network, inShape []int, opts Options) (*Server, error) {
	m, err := model.New("default", "v1", net, program.CompileOptions{InShape: inShape})
	if err != nil {
		return nil, err
	}
	return NewModel(m, opts)
}

// testInputs returns n distinct deterministic input vectors plus the
// reference prediction for each, computed on the unshared original model.
func testInputs(net *nn.Network, n, features int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(99))
	inputs := make([][]float64, n)
	want := make([]int, n)
	for i := range inputs {
		inputs[i] = make([]float64, features)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
		x := tensor.FromSlice(inputs[i], 1, features)
		want[i] = net.Predict(x)[0]
	}
	return inputs, want
}

// TestConcurrentLoad is the scheduler's contract test: N goroutines hammer
// the server, and every request must be answered exactly once, correctly,
// in a batch no larger than configured. Run under -race this also proves
// replicas and workspaces share no state.
func TestConcurrentLoad(t *testing.T) {
	net := testModel(1)
	const (
		goroutines = 8
		perG       = 40
		maxBatch   = 4
	)
	srv, err := newNetServer(net, []int{64}, Options{
		Workers:  4,
		MaxBatch: maxBatch,
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inputs, want := testInputs(net, 16, 64)
	var answered atomic.Uint64
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := (g*perG + i) % len(inputs)
				res, err := srv.Infer(context.Background(), inputs[k])
				if err != nil {
					errCh <- err
					return
				}
				if res.Class != want[k] {
					t.Errorf("input %d: served class %d, reference %d", k, res.Class, want[k])
				}
				if res.BatchSize < 1 || res.BatchSize > maxBatch {
					t.Errorf("batch size %d outside [1, %d]", res.BatchSize, maxBatch)
				}
				answered.Add(1)
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	const total = goroutines * perG
	if got := answered.Load(); got != total {
		t.Fatalf("answered %d of %d requests", got, total)
	}
	st := srv.Stats()
	if st.Requests != total || st.Completed != total {
		t.Errorf("stats: requests=%d completed=%d, want %d each", st.Requests, st.Completed, total)
	}
	if st.MaxBatch > maxBatch {
		t.Errorf("stats: max batch %d exceeds configured %d", st.MaxBatch, maxBatch)
	}
	if st.Batches == 0 || st.MeanBatch < 1 {
		t.Errorf("stats: batches=%d meanBatch=%f", st.Batches, st.MeanBatch)
	}
}

// TestBatchDeadline checks that a lone request is not held hostage by a
// large MaxBatch: the deadline must flush it.
func TestBatchDeadline(t *testing.T) {
	srv, err := newNetServer(testModel(2), []int{64}, Options{
		Workers:  1,
		MaxBatch: 1024,
		MaxDelay: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	input := make([]float64, 64)
	start := time.Now()
	res, err := srv.Infer(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("lone request took %v; deadline flush did not fire", elapsed)
	}
	if res.BatchSize != 1 {
		t.Errorf("lone request served in batch of %d, want 1", res.BatchSize)
	}
}

// TestResultCache checks the LRU: repeats hit, distinct inputs miss, and
// capacity is enforced.
func TestResultCache(t *testing.T) {
	net := testModel(3)
	srv, err := newNetServer(net, []int{64}, Options{
		Workers:   1,
		MaxBatch:  4,
		MaxDelay:  time.Millisecond,
		CacheSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inputs, want := testInputs(net, 3, 64)
	first, err := srv.Infer(context.Background(), inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request reported Cached")
	}
	again, err := srv.Infer(context.Background(), inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat request not served from cache")
	}
	if again.Class != want[0] {
		t.Errorf("cached class %d, want %d", again.Class, want[0])
	}
	// Mutating the caller's copy must not corrupt the cache.
	again.Scores[again.Class] = -1e9
	third, err := srv.Infer(context.Background(), inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	if third.Class != want[0] {
		t.Errorf("cache corrupted by caller mutation: class %d, want %d", third.Class, want[0])
	}

	// Overflow the 2-entry capacity; the oldest entry must be evicted.
	for _, in := range inputs[1:] {
		if _, err := srv.Infer(context.Background(), in); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, n := srv.cache.counters(); n > 2 {
		t.Errorf("cache holds %d entries, capacity 2", n)
	}
	st := srv.Stats()
	if st.CacheHits == 0 || st.CacheMisses == 0 {
		t.Errorf("stats: hits=%d misses=%d, want both nonzero", st.CacheHits, st.CacheMisses)
	}
}

// TestStatsConsistentUnderLoad is the regression test for the /stats race:
// Stats used to assemble its cache figures from two separate lock
// acquisitions, so a snapshot taken while /infer traffic was moving the
// LRU could pair entry counts with hit/miss totals from different moments.
// Here several clients hammer Infer through a cache that sees both hits
// and misses while a reader polls Stats, and every snapshot must be
// internally consistent. CI runs this under -race.
func TestStatsConsistentUnderLoad(t *testing.T) {
	const clients, iters, distinct = 4, 150, 6
	net := testModel(11)
	srv, err := newNetServer(net, []int{64}, Options{
		Workers:   2,
		MaxBatch:  4,
		MaxDelay:  100 * time.Microsecond,
		CacheSize: distinct,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inputs, _ := testInputs(net, distinct, 64)

	done := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			st := srv.Stats()
			// Invariants that hold at every instant with no cancelled
			// submissions: requests are counted before their cache
			// lookup or admission, and Stats reads the cache before the
			// collector, so no cache counter can ever outrun Requests
			// in one snapshot.
			if st.Completed > st.Requests {
				t.Errorf("snapshot: completed %d > requests %d", st.Completed, st.Requests)
			}
			if st.CacheHits+st.CacheMisses > st.Requests {
				t.Errorf("snapshot: hits %d + misses %d > requests %d",
					st.CacheHits, st.CacheMisses, st.Requests)
			}
			if st.CacheEntries > distinct {
				t.Errorf("snapshot: %d cache entries, capacity %d", st.CacheEntries, distinct)
			}
			if st.MaxBatch > 4 {
				t.Errorf("snapshot: max batch %d > configured 4", st.MaxBatch)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := srv.Infer(context.Background(), inputs[(c+i)%distinct]); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(done)
	readerWG.Wait()

	// At quiescence the books must balance exactly.
	st := srv.Stats()
	if st.Requests != clients*iters {
		t.Errorf("requests %d, want %d", st.Requests, clients*iters)
	}
	if st.CacheHits+st.CacheMisses != st.Requests {
		t.Errorf("hits %d + misses %d != requests %d", st.CacheHits, st.CacheMisses, st.Requests)
	}
	if st.Completed != st.CacheMisses {
		t.Errorf("completed %d != misses %d (every miss runs the model exactly once)", st.Completed, st.CacheMisses)
	}
	if st.CacheHits == 0 {
		t.Error("no cache hits despite repeated inputs")
	}
}

// TestPassthroughModelScoresNotClobbered: a model of pure pass-through
// layers returns a view of the worker's reused input buffer from its
// forward pass; the zero-copy score fan-out must detect that aliasing and
// copy, or the next batch's input would rewrite scores the previous
// requester still holds.
func TestPassthroughModelScoresNotClobbered(t *testing.T) {
	srv, err := newNetServer(nn.NewNetwork(nn.NewFlatten()), []int{8}, Options{
		Workers:  1,
		MaxBatch: 2,
		MaxDelay: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	in1 := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	in2 := []float64{9, 10, 11, 12, 13, 14, 15, 16}
	res1, err := srv.Infer(context.Background(), in1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Infer(context.Background(), in2); err != nil {
		t.Fatal(err)
	}
	for i, v := range in1 {
		if res1.Scores[i] != v {
			t.Fatalf("first result clobbered by second batch: scores %v, want %v", res1.Scores, in1)
		}
	}
}

// TestCloseSemantics checks Close idempotence and post-Close rejection —
// including for inputs the result cache could still answer.
func TestCloseSemantics(t *testing.T) {
	srv, err := newNetServer(testModel(4), []int{64}, Options{Workers: 2, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Infer(context.Background(), make([]float64, 64)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // idempotent
	// The zero input is cached now, but a closed server must still refuse.
	if _, err := srv.Infer(context.Background(), make([]float64, 64)); err != ErrClosed {
		t.Errorf("Infer after Close: err=%v, want ErrClosed", err)
	}
}

// TestInputValidation checks shape errors and config errors are reported,
// not paniced.
func TestInputValidation(t *testing.T) {
	srv, err := newNetServer(testModel(5), []int{64}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Infer(context.Background(), make([]float64, 63)); err == nil {
		t.Error("short input accepted")
	}

	if _, err := NewModel(nil, Options{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := newNetServer(testModel(6), nil, Options{}); err == nil {
		t.Error("missing input shape accepted")
	}
	// A shape the model rejects must surface as an error from the probe.
	if _, err := newNetServer(testModel(7), []int{63}, Options{}); err == nil {
		t.Error("mismatched input shape accepted")
	}
}

// TestContextCancellation checks that a cancelled context unblocks Infer.
func TestContextCancellation(t *testing.T) {
	srv, err := newNetServer(testModel(8), []int{64}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := srv.Infer(ctx, make([]float64, 64)); err != context.Canceled {
		// The request may also have been served before the cancellation
		// was observed; only a hang is a failure, and a hang fails the
		// test by timeout. Accept either outcome.
		if err != nil {
			t.Errorf("unexpected error %v", err)
		}
	}
}

// TestServedMatchesReference requires a served score to be exactly the
// original network's score for that input alone — batching and workspace
// reuse must not change the numerics. The inputs are fired concurrently at
// one worker whose batch cap admits all of them, so they really are served
// coalesced (a serial sender never forms a batch, and a batch is where a
// co-traffic-dependent kernel would show).
func TestServedMatchesReference(t *testing.T) {
	net := testModel(9)
	inputs, _ := testInputs(net, 8, 64)
	srv, err := newNetServer(net, []int{64}, Options{
		Workers:  1,
		MaxBatch: len(inputs),
		MaxDelay: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// The scheduler dispatches early once nothing is queued, so how many
	// requests coalesce is up to the Go scheduler: release all senders at
	// once, and repeat the round until some batch held more than one.
	largest := 0
	for round := 0; round < 20 && largest < 2; round++ {
		start := make(chan struct{})
		results := make([]Result, len(inputs))
		errs := make([]error, len(inputs))
		var wg sync.WaitGroup
		for k := range inputs {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				<-start
				results[k], errs[k] = srv.Infer(context.Background(), inputs[k])
			}(k)
		}
		close(start)
		wg.Wait()
		for k, in := range inputs {
			if errs[k] != nil {
				t.Fatal(errs[k])
			}
			largest = max(largest, results[k].BatchSize)
			ref := net.Forward(tensor.FromSlice(in, 1, 64), false).Row(0)
			for j := range ref {
				if results[k].Scores[j] != ref[j] {
					t.Fatalf("input %d class %d in a batch of %d: served score %v, reference %v",
						k, j, results[k].BatchSize, results[k].Scores[j], ref[j])
				}
			}
		}
	}
	if largest < 2 {
		t.Fatal("no two requests were served in one batch: the test never exercised batching")
	}
}
