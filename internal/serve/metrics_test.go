package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/serve/admission"
)

// metricsTestRegistry builds a serving registry with Prometheus
// instrumentation attached and one registered model, returning both.
func metricsTestRegistry(t *testing.T, opts Options) (*Registry, *metrics.Registry) {
	t.Helper()
	mr := metrics.NewRegistry()
	opts.Metrics = mr
	reg := NewRegistry(opts)
	t.Cleanup(reg.Close)
	m, err := model.New("m", "v1", testModel(3), program.CompileOptions{InShape: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	return reg, mr
}

// TestStatsMetricsAgree is the library-level parity contract: after a
// quiesced traffic mix that includes cache hits, the counters a /metrics
// scrape reports must equal the same counters in the Stats snapshot —
// they are callbacks over the identical state, so any divergence is a
// wiring bug, not skew.
func TestStatsMetricsAgree(t *testing.T) {
	// Every shard of the cache can hold all eight inputs, so the exact
	// hit count below does not depend on where the seeded hash puts them.
	reg, mr := metricsTestRegistry(t, Options{Workers: 2, MaxBatch: 4, CacheSize: 8 * cacheShards})
	ctx := context.Background()
	inputs, _ := testInputs(testModel(3), 8, 64)
	for round := 0; round < 3; round++ { // rounds 2 and 3 hit the cache
		for _, in := range inputs {
			if _, err := reg.Infer(ctx, "m", "", in); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := reg.Stats("m", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 16 || st.CacheMisses != 8 {
		t.Fatalf("cache counters hits=%d misses=%d, want 16/8", st.CacheHits, st.CacheMisses)
	}
	out := mr.Expose()
	wants := []string{
		fmt.Sprintf(`repro_requests_total{model="m@v1"} %d`, st.Requests),
		fmt.Sprintf(`repro_completed_total{model="m@v1"} %d`, st.Completed),
		fmt.Sprintf(`repro_cache_entries{model="m@v1"} %d`, st.CacheEntries),
		`repro_shed_total{model="m@v1",reason="slo"} 0`,
	}
	for _, want := range wants {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// The per-shard hit/miss series must sum to the Stats aggregate —
	// both read the same shard counters.
	sumSeries := func(family string) (sum uint64) {
		for _, line := range strings.Split(out, "\n") {
			if !strings.HasPrefix(line, family+"{") {
				continue
			}
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err != nil {
				t.Fatalf("parsing %q: %v", line, err)
			}
			sum += uint64(v)
		}
		return sum
	}
	if got := sumSeries(MetricCacheHits); got != st.CacheHits {
		t.Errorf("per-shard hit series sum to %d, Stats reports %d", got, st.CacheHits)
	}
	if got := sumSeries(MetricCacheMisses); got != st.CacheMisses {
		t.Errorf("per-shard miss series sum to %d, Stats reports %d", got, st.CacheMisses)
	}
	// The latency histogram saw every completed (non-cached) request.
	h := mr.FindHistogram(MetricRequestLatency, "model", "m@v1")
	if h == nil {
		t.Fatal("latency histogram not registered")
	}
	if got := h.Snapshot().Count(); got != st.Completed {
		t.Errorf("latency observations %d, want Completed %d", got, st.Completed)
	}
}

// TestShedCounterAgrees drives a server whose SLO is impossible to meet,
// so every admitted request is shed deterministically, and pins the shed
// counter through both surfaces.
func TestShedCounterAgrees(t *testing.T) {
	reg, mr := metricsTestRegistry(t, Options{Workers: 1, MaxBatch: 4, SLO: time.Nanosecond})
	ctx := context.Background()
	inputs, _ := testInputs(testModel(3), 8, 64)
	var shed int
	for _, in := range inputs {
		_, err := reg.Infer(ctx, "m", "", in)
		var oe *admission.OverloadError
		if errors.As(err, &oe) && oe.Reason == admission.ReasonSLO {
			shed++
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if shed != len(inputs) {
		t.Fatalf("shed %d of %d requests; a 1ns SLO must shed every one", shed, len(inputs))
	}
	st, err := reg.Stats("m", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Shed != uint64(shed) {
		t.Fatalf("Stats.Shed %d, want %d", st.Shed, shed)
	}
	want := fmt.Sprintf(`repro_shed_total{model="m@v1",reason="slo"} %d`, shed)
	if out := mr.Expose(); !strings.Contains(out, want+"\n") {
		t.Errorf("exposition missing %q in:\n%s", want, out)
	}
}

// TestRetireUnregistersSeries pins the series lifecycle: a retired
// model's callback-backed series must vanish from the exposition (their
// callbacks would otherwise read freed state forever), while a sibling
// model's series survive.
func TestRetireUnregistersSeries(t *testing.T) {
	reg, mr := metricsTestRegistry(t, Options{Workers: 1, MaxBatch: 4, CacheSize: 8})
	m2, err := model.New("m", "v2", testModel(4), program.CompileOptions{InShape: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(m2); err != nil {
		t.Fatal(err)
	}
	if out := mr.Expose(); !strings.Contains(out, `model="m@v1"`) || !strings.Contains(out, `model="m@v2"`) {
		t.Fatalf("both versions should be exposed before retirement:\n%s", out)
	}
	if err := reg.Retire("m", "v1"); err != nil {
		t.Fatal(err)
	}
	out := mr.Expose()
	if strings.Contains(out, `model="m@v1"`) {
		t.Errorf("retired model's series still exposed:\n%s", out)
	}
	if !strings.Contains(out, `model="m@v2"`) {
		t.Errorf("surviving model's series lost:\n%s", out)
	}
}

// TestAdmissionMetricsAgree pins the admission controller's /metrics
// series against its Stats snapshot after a deterministic admit/shed mix.
func TestAdmissionMetricsAgree(t *testing.T) {
	mr := metrics.NewRegistry()
	ctrl := admission.New(admission.Config{MaxInflight: 2, Quota: map[string]int{"m": 1}})
	ctrl.RegisterMetrics(mr)
	t1, err := ctrl.Admit("m")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Admit("m"); err == nil {
		t.Fatal("second admit within quota 1 should shed")
	}
	t2, err := ctrl.Admit("other")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Admit("other"); err == nil {
		t.Fatal("third inflight admit should shed at MaxInflight 2")
	}
	st := ctrl.Stats()
	out := mr.Expose()
	for _, want := range []string{
		fmt.Sprintf("repro_admission_admitted_total %d", st.Admitted),
		fmt.Sprintf(`repro_admission_shed_total{reason="inflight"} %d`, st.ShedInflight),
		fmt.Sprintf(`repro_admission_shed_total{reason="quota"} %d`, st.ShedQuota),
		fmt.Sprintf("repro_admission_inflight %d", st.Inflight),
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	t1.Release()
	t2.Release()
	if out := mr.Expose(); !strings.Contains(out, "repro_admission_inflight 0\n") {
		t.Errorf("inflight gauge did not return to 0:\n%s", out)
	}
}

// TestRegistryWeightsRaw pins the canary controller's restore contract:
// Weights returns the split exactly as configured (unnormalised), and nil
// when the name has no split.
func TestRegistryWeightsRaw(t *testing.T) {
	reg, _ := metricsTestRegistry(t, Options{Workers: 1, MaxBatch: 2})
	m2, err := model.New("m", "v2", testModel(5), program.CompileOptions{InShape: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(m2); err != nil {
		t.Fatal(err)
	}
	if w := reg.Weights("m"); w != nil {
		t.Fatalf("Weights with no split = %v, want nil", w)
	}
	in := map[string]float64{"v1": 3, "v2": 1}
	if err := reg.SetWeights("m", in); err != nil {
		t.Fatal(err)
	}
	got := reg.Weights("m")
	if len(got) != 2 || got["v1"] != 3 || got["v2"] != 1 {
		t.Fatalf("Weights = %v, want the raw configured %v", got, in)
	}
	// The returned map is a copy; mutating it must not touch the route.
	got["v1"] = 100
	if w := reg.Weights("m"); w["v1"] != 3 {
		t.Error("Weights returned a map aliasing the live route")
	}
}

// TestMetricsInstrumentedInferZeroAlloc extends the serving-path
// allocation gate to the instrumented configuration: with Options.Metrics
// registered, the warm registry-routed InferInto must still allocate
// nothing — the histogram/gauge writes on the worker path are pure
// atomics.
func TestMetricsInstrumentedInferZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs without -race")
	}
	rng := rand.New(rand.NewSource(71))
	net := nn.Arch1(rng)
	m, err := model.New("arch1", "v1", net, program.CompileOptions{InShape: []int{256}})
	if err != nil {
		t.Fatal(err)
	}
	mr := metrics.NewRegistry()
	reg := NewRegistry(Options{Workers: 1, MaxBatch: 16, Metrics: mr})
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
		t.Errorf("instrumented registry-routed InferInto allocates %.1f/op; want 0", allocs)
	}
	if h := mr.FindHistogram(MetricRequestLatency, "model", "arch1@v1"); h == nil || h.Snapshot().Count() == 0 {
		t.Error("latency histogram missing or empty — instrumentation not on the path")
	}
}
