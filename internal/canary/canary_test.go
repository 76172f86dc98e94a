package canary

import (
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/serve"
)

// TestMain asserts the canary suite leaks no goroutines: every controller
// a test starts must be fully stopped by the end of the test, including
// the terminal-state paths that end the loop from inside.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		for i := 0; i < 100; i++ {
			if runtime.NumGoroutine() <= before {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			os.Stderr.WriteString("goroutine leak:\n" + string(buf[:n]) + "\n")
			code = 1
		}
	}
	os.Exit(code)
}

// fakeClock drives the controller tick-by-tick: step sends one tick and
// blocks until the controller has finished evaluating it, so a test
// observes every state transition deterministically, with no sleeps.
type fakeClock struct {
	tick chan time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{tick: make(chan time.Time)} }

func (f *fakeClock) Now() time.Time                 { return time.Unix(0, 0) }
func (f *fakeClock) NewTicker(time.Duration) Ticker { return fakeTicker{f.tick} }

type fakeTicker struct{ c chan time.Time }

func (t fakeTicker) C() <-chan time.Time { return t.c }
func (fakeTicker) Stop()                 {}

func (f *fakeClock) step(t *testing.T, c *Controller) {
	t.Helper()
	select {
	case f.tick <- time.Time{}:
	case <-time.After(5 * time.Second):
		t.Fatal("controller did not consume a tick")
	}
	select {
	case <-c.afterEval:
	case <-time.After(5 * time.Second):
		t.Fatal("controller did not finish evaluating")
	}
}

// testNet builds a small deterministic block-circulant network.
func testNet(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewNetwork(
		nn.NewCircDense(64, 32, 16, rng),
		nn.NewReLU(),
		nn.NewDense(32, 10, rng),
	)
}

// testProbes returns deterministic probe inputs of the test nets' InDim.
func testProbes(n int) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	probes := make([][]float64, n)
	for i := range probes {
		probes[i] = make([]float64, 64)
		for j := range probes[i] {
			probes[i][j] = rng.NormFloat64()
		}
	}
	return probes
}

// newPair registers base v1 (seed baseSeed) and candidate v2 (seed
// candSeed) of model "m" in a fresh registry.
func newPair(t *testing.T, baseSeed, candSeed int64) *serve.Registry {
	t.Helper()
	reg := serve.NewRegistry(serve.Options{Workers: 1, MaxBatch: 4})
	t.Cleanup(reg.Close)
	// v1 then v2, in that order: tests rely on the later registration
	// holding the "latest" alias.
	for _, b := range []struct {
		version string
		seed    int64
	}{{"v1", baseSeed}, {"v2", candSeed}} {
		m, err := model.New("m", b.version, testNet(b.seed), program.CompileOptions{InShape: []int{64}})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// eventLog collects controller events; the OnEvent callback runs on the
// controller goroutine, so access is locked.
type eventLog struct {
	mu     sync.Mutex
	events []Event
}

func (l *eventLog) add(ev Event) {
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

func (l *eventLog) types() []EventType {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]EventType, len(l.events))
	for i, ev := range l.events {
		out[i] = ev.Type
	}
	return out
}

func (l *eventLog) last() Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.events[len(l.events)-1]
}

// latestVersion reports which version "m"'s latest alias points to.
func latestVersion(t *testing.T, reg *serve.Registry) string {
	t.Helper()
	for _, info := range reg.Models() {
		if info.Name == "m" && info.Latest {
			return info.Version
		}
	}
	t.Fatal("no latest version for m")
	return ""
}

func startController(t *testing.T, cfg Config, clk *fakeClock) (*Controller, *eventLog) {
	t.Helper()
	log := &eventLog{}
	cfg.Clock = clk
	cfg.OnEvent = log.add
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.afterEval = make(chan struct{})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c, log
}

// TestHealthyCanaryPromotes is the happy-path e2e: an identical candidate
// (zero drift, no latency data → inconclusive) ramps through the full
// schedule and is promoted to latest.
func TestHealthyCanaryPromotes(t *testing.T) {
	reg := newPair(t, 1, 1) // identical nets: drift is exactly zero
	clk := newFakeClock()
	c, log := startController(t, Config{
		Registry:     reg,
		Base:         "m@v1",
		Candidate:    "m@v2",
		Schedule:     []float64{0.25, 0.5},
		HealthyTicks: 2,
		Probes:       testProbes(8),
	}, clk)

	// Step 0 installed by Start.
	if w := reg.Weights("m"); w["v2"] != 0.25 || w["v1"] != 0.75 {
		t.Fatalf("step-0 split = %v, want v1:0.75 v2:0.25", w)
	}
	clk.step(t, c) // healthy 1/2
	if w := reg.Weights("m"); w["v2"] != 0.25 {
		t.Fatalf("advanced after one healthy tick with HealthyTicks=2: %v", w)
	}
	clk.step(t, c) // healthy 2/2 → ramp to step 1
	if w := reg.Weights("m"); w["v2"] != 0.5 || w["v1"] != 0.5 {
		t.Fatalf("step-1 split = %v, want 0.5/0.5", w)
	}
	clk.step(t, c) // healthy 1/2 at final step
	clk.step(t, c) // healthy 2/2 → promote
	if got := c.State(); got != StatePromoted {
		t.Fatalf("state %s, want %s", got, StatePromoted)
	}
	if v := latestVersion(t, reg); v != "v2" {
		t.Errorf("latest points at %s after promote, want v2", v)
	}
	if w := reg.Weights("m"); w != nil {
		t.Errorf("split not cleared by promote: %v", w)
	}
	want := []EventType{EventRamp, EventRamp, EventPromote}
	if got := log.types(); len(got) != len(want) {
		t.Fatalf("events %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("events %v, want %v", got, want)
			}
		}
	}
	c.Stop() // idempotent after self-termination
}

// TestDriftingCanaryRollsBackToPriorSplit: a drifting candidate breaches,
// and rollback restores the exact raw weights configured before the
// canary started.
func TestDriftingCanaryRollsBackToPriorSplit(t *testing.T) {
	reg := newPair(t, 1, 2) // different nets: scores differ on every probe
	if err := reg.SetWeights("m", map[string]float64{"v1": 3, "v2": 1}); err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	c, log := startController(t, Config{
		Registry:      reg,
		Base:          "m@v1",
		Candidate:     "m@v2",
		Schedule:      []float64{0.1},
		BreachTicks:   2,
		MaxScoreDelta: 1e-9, // any numeric difference breaches
		Probes:        testProbes(8),
	}, clk)

	clk.step(t, c) // breach 1/2
	if got := c.State(); got != StateRamping {
		t.Fatalf("rolled back after one breach with BreachTicks=2 (state %s)", got)
	}
	clk.step(t, c) // breach 2/2 → rollback
	if got := c.State(); got != StateRolledBack {
		t.Fatalf("state %s, want %s", got, StateRolledBack)
	}
	if w := reg.Weights("m"); w["v1"] != 3 || w["v2"] != 1 || len(w) != 2 {
		t.Errorf("rollback restored %v, want the exact pre-canary {v1:3 v2:1}", w)
	}
	last := log.last()
	if last.Type != EventRollback || !strings.Contains(last.Reason, "drift") {
		t.Errorf("last event %+v, want a rollback citing drift", last)
	}
}

// TestRollbackWithoutPriorSplitRestoresBase: when the name had no split,
// rollback must clear the canary split AND re-point latest at the base —
// the candidate's later registration had claimed the alias, so merely
// clearing the split would route 100% of traffic to the bad candidate.
func TestRollbackWithoutPriorSplitRestoresBase(t *testing.T) {
	reg := newPair(t, 1, 2)
	if v := latestVersion(t, reg); v != "v2" {
		t.Fatalf("precondition: registering v2 last should leave latest at v2, got %s", v)
	}
	clk := newFakeClock()
	c, _ := startController(t, Config{
		Registry:      reg,
		Base:          "m@v1",
		Candidate:     "m@v2",
		Schedule:      []float64{0.1},
		BreachTicks:   1,
		MaxScoreDelta: 1e-9,
		Probes:        testProbes(8),
	}, clk)

	clk.step(t, c)
	if got := c.State(); got != StateRolledBack {
		t.Fatalf("state %s, want %s", got, StateRolledBack)
	}
	if w := reg.Weights("m"); w != nil {
		t.Errorf("split not cleared on rollback: %v", w)
	}
	if v := latestVersion(t, reg); v != "v1" {
		t.Errorf("latest points at %s after rollback, want base v1", v)
	}
}

// TestCandidateRetiredMidEvaluationStops: retiring the candidate while
// the canary is evaluating ends it with a clean stop — no verdict, no
// weight surgery (Retire already dissolved the split).
func TestCandidateRetiredMidEvaluationStops(t *testing.T) {
	reg := newPair(t, 1, 1)
	clk := newFakeClock()
	c, log := startController(t, Config{
		Registry:     reg,
		Base:         "m@v1",
		Candidate:    "m@v2",
		Schedule:     []float64{0.25, 0.5},
		HealthyTicks: 2,
		Probes:       testProbes(8),
	}, clk)

	clk.step(t, c) // one healthy evaluation, still mid-ramp
	if err := reg.Retire("m", "v2"); err != nil {
		t.Fatal(err)
	}
	clk.step(t, c)
	if got := c.State(); got != StateStopped {
		t.Fatalf("state %s, want %s", got, StateStopped)
	}
	last := log.last()
	if last.Type != EventStop || !strings.Contains(last.Reason, "candidate retired") {
		t.Errorf("last event %+v, want a stop citing the retired candidate", last)
	}
	if w := reg.Weights("m"); w != nil {
		t.Errorf("dangling split after retirement stop: %v", w)
	}
	if v := latestVersion(t, reg); v != "v1" {
		t.Errorf("latest %s, want the surviving v1", v)
	}
}

// TestLatencyBreachRollsBack drives the latency axis directly: the
// controller reads its arms' histograms from the metrics registry, so
// the test registers those series itself and fills them with a window
// where the candidate's p99 is far beyond ratio × base.
func TestLatencyBreachRollsBack(t *testing.T) {
	reg := newPair(t, 1, 1) // identical nets: drift axis stays healthy
	mr := metrics.NewRegistry()
	hb := mr.Histogram(serve.MetricRequestLatency, "Latency.", metrics.LatencyBuckets, "model", "m@v1")
	hc := mr.Histogram(serve.MetricRequestLatency, "Latency.", metrics.LatencyBuckets, "model", "m@v2")
	clk := newFakeClock()
	c, log := startController(t, Config{
		Registry:     reg,
		Metrics:      mr,
		Base:         "m@v1",
		Candidate:    "m@v2",
		Schedule:     []float64{0.1},
		BreachTicks:  1,
		MinSamples:   50,
		LatencyRatio: 2,
		LatencyFloor: time.Microsecond,
		Probes:       testProbes(4),
	}, clk)

	// Window 1: both arms fast and equal — healthy (but HealthyTicks
	// defaults to 2, so no promote yet).
	for i := 0; i < 100; i++ {
		hb.Observe(1e-3)
		hc.Observe(1e-3)
	}
	clk.step(t, c)
	if got := c.State(); got != StateRamping {
		t.Fatalf("state %s after healthy window, want ramping", got)
	}
	// Window 2: candidate p99 ≈ 100ms vs base 1ms — breach.
	for i := 0; i < 100; i++ {
		hb.Observe(1e-3)
		hc.Observe(0.1)
	}
	clk.step(t, c)
	if got := c.State(); got != StateRolledBack {
		t.Fatalf("state %s, want %s", got, StateRolledBack)
	}
	last := log.last()
	if last.Type != EventRollback || !strings.Contains(last.Reason, "latency") {
		t.Errorf("last event %+v, want a rollback citing latency", last)
	}
	// Probe traffic must not have skewed the drift verdict or the split
	// restore: no prior split, so latest is back on the base.
	if v := latestVersion(t, reg); v != "v1" {
		t.Errorf("latest %s, want v1", v)
	}
}

// TestStopMidRampLeavesSplit: Stop ends evaluation without a verdict and
// without touching the installed split.
func TestStopMidRampLeavesSplit(t *testing.T) {
	reg := newPair(t, 1, 1)
	clk := newFakeClock()
	c, log := startController(t, Config{
		Registry:  reg,
		Base:      "m@v1",
		Candidate: "m@v2",
		Schedule:  []float64{0.25},
		Probes:    testProbes(4),
	}, clk)
	c.Stop()
	c.Stop() // idempotent
	if got := c.State(); got != StateStopped {
		t.Fatalf("state %s, want %s", got, StateStopped)
	}
	if last := log.last(); last.Type != EventStop {
		t.Errorf("last event %+v, want stop", last)
	}
	if w := reg.Weights("m"); w["v2"] != 0.25 {
		t.Errorf("Stop modified the split: %v", w)
	}
}

// TestNewValidation pins the constructor's rejection surface.
func TestNewValidation(t *testing.T) {
	reg := newPair(t, 1, 1)
	probes := testProbes(1)
	for name, cfg := range map[string]Config{
		"nil registry":    {Base: "m@v1", Candidate: "m@v2", Probes: probes},
		"bare base":       {Registry: reg, Base: "m", Candidate: "m@v2", Probes: probes},
		"cross-model":     {Registry: reg, Base: "m@v1", Candidate: "other@v2", Probes: probes},
		"same version":    {Registry: reg, Base: "m@v1", Candidate: "m@v1", Probes: probes},
		"no probes":       {Registry: reg, Base: "m@v1", Candidate: "m@v2"},
		"unregistered":    {Registry: reg, Base: "m@v1", Candidate: "m@v9", Probes: probes},
		"weight ≥ 1":      {Registry: reg, Base: "m@v1", Candidate: "m@v2", Probes: probes, Schedule: []float64{0.5, 1}},
		"descending ramp": {Registry: reg, Base: "m@v1", Candidate: "m@v2", Probes: probes, Schedule: []float64{0.5, 0.25}},
	} {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted an invalid config", name)
		}
	}
}
