package router

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/serve"
	"repro/internal/serve/admission"
	"repro/internal/serve/stream"
	"repro/internal/tensor"
)

// fleetBackend is one simulated cmd/serve process: a registry behind an
// RPS2 listener plus the HTTP surface (/v1/models, /metrics) the router
// scrapes. kill() force-closes the data path (the HTTP surface stays up,
// like a process whose stream listener died); revive() re-listens on the
// same address with a fresh stream server over the same registry.
type fleetBackend struct {
	t          *testing.T
	addr       string
	hs         *httptest.Server
	reg        *serve.Registry
	streamOpts stream.Options

	mu        sync.Mutex
	srv       *stream.Server
	serveDone chan error
}

// The variadic extra hooks let a test mount additional HTTP handlers on
// the backend's surface (the proxy tests serve fake vector endpoints).
func startFleetBackend(t *testing.T, reg *serve.Registry, mx *metrics.Registry, streamOpts stream.Options, extra ...func(*http.ServeMux)) *fleetBackend {
	t.Helper()
	fb := &fleetBackend{t: t, reg: reg, streamOpts: streamOpts}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fb.addr = ln.Addr().String()
	fb.srv = stream.NewServer(reg, streamOpts)
	fb.serveDone = make(chan error, 1)
	go func(srv *stream.Server, done chan error) { done <- srv.Serve(ln) }(fb.srv, fb.serveDone)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{"models": reg.Models()})
	})
	if mx != nil {
		mux.Handle("GET /metrics", mx.Handler())
	}
	for _, fn := range extra {
		fn(mux)
	}
	fb.hs = httptest.NewServer(mux)

	t.Cleanup(func() {
		fb.mu.Lock()
		srv, done := fb.srv, fb.serveDone
		fb.mu.Unlock()
		_ = srv.Close()
		<-done
		fb.hs.Close()
		reg.Close()
	})
	return fb
}

func (fb *fleetBackend) config() BackendConfig {
	return BackendConfig{Addr: fb.addr, HTTPURL: fb.hs.URL}
}

// kill force-closes the stream server without draining — in-flight and
// future requests see a dropped connection.
func (fb *fleetBackend) kill() {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	_ = fb.srv.Close()
	<-fb.serveDone
}

// revive re-listens on the backend's original address with a new stream
// server over the same registry; reconnecting clients find it again.
func (fb *fleetBackend) revive() {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	ln, err := net.Listen("tcp", fb.addr)
	if err != nil {
		fb.t.Fatalf("revive %s: %v", fb.addr, err)
	}
	fb.srv = stream.NewServer(fb.reg, fb.streamOpts)
	fb.serveDone = make(chan error, 1)
	go func(srv *stream.Server, done chan error) { done <- srv.Serve(ln) }(fb.srv, fb.serveDone)
}

// newFleetRegistry builds a registry serving the given versions of
// "mnist" (Arch-2, 121 features). The rng is re-seeded per registry so
// two backends built with the same version list hold identical weights —
// routed answers must then match regardless of placement.
func newFleetRegistry(t testing.TB, mx *metrics.Registry, versions ...string) *serve.Registry {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	reg := serve.NewRegistry(serve.Options{Workers: 2, MaxBatch: 8, Metrics: mx})
	for _, v := range versions {
		m, err := model.New("mnist", v, nn.Arch2(rng), program.CompileOptions{InShape: []int{121}})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func testInput(seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	in := make([]float64, 121)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	return in
}

func newTestRouter(t *testing.T, opts Options) *Router {
	t.Helper()
	rt, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Close(ctx)
	})
	return rt
}

// TestRouterRoutesByView pins the routing tentpole: pinned routes land
// only on backends whose propagated view holds them, bare-name routes
// work, Models merges and dedupes, unknown routes are a typed 404, and
// the router serves as a stream.Backend behind its own RPS2 front end.
func TestRouterRoutesByView(t *testing.T) {
	b1 := startFleetBackend(t, newFleetRegistry(t, nil, "v1"), nil, stream.Options{})
	b2 := startFleetBackend(t, newFleetRegistry(t, nil, "v1", "v2"), nil, stream.Options{})
	rt := newTestRouter(t, Options{
		Backends:        []BackendConfig{b1.config(), b2.config()},
		RefreshInterval: 50 * time.Millisecond,
		ProbeInterval:   time.Hour, // keep synthetic probes out of the request counters
		Seed:            1,
	})
	ctx := context.Background()
	in := testInput(7)

	// mnist@v2 exists only on b2: every pinned request must land there,
	// answering exactly what b2's registry answers in-process.
	ref, err := b2.reg.Infer(ctx, "mnist", "v2", in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		res, err := rt.Infer(ctx, "mnist", "v2", in)
		if err != nil {
			t.Fatalf("routed mnist@v2 #%d: %v", i, err)
		}
		if len(res.Scores) != len(ref.Scores) {
			t.Fatalf("scores len %d, want %d", len(res.Scores), len(ref.Scores))
		}
		for j := range res.Scores {
			if res.Scores[j] != ref.Scores[j] {
				t.Fatalf("score[%d] = %v, want %v", j, res.Scores[j], ref.Scores[j])
			}
		}
	}
	rows := rt.Backends()
	if rows[0].Requests != 0 || rows[1].Requests != 10 {
		t.Fatalf("pinned v2 placement: b1=%d b2=%d requests, want 0/10", rows[0].Requests, rows[1].Requests)
	}

	// The bare name routes wherever any version lives.
	if _, err := rt.Infer(ctx, "mnist", "", in); err != nil {
		t.Fatalf("bare-name route: %v", err)
	}

	// Models merges both views and dedupes the shared mnist@v1.
	models := rt.Models()
	ids := make(map[string]bool)
	for _, m := range models {
		ids[m.Name+"@"+m.Version] = true
	}
	if len(models) != 2 || !ids["mnist@v1"] || !ids["mnist@v2"] {
		t.Fatalf("merged models = %v, want exactly {mnist@v1, mnist@v2}", ids)
	}

	// Unknown route: typed 404, never 503 — nothing holds it anywhere.
	_, err = rt.Infer(ctx, "nope", "", in)
	if !errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("unknown route error = %v, want serve.ErrNotFound identity", err)
	}
	if errors.Is(err, serve.ErrClosed) {
		t.Fatal("unknown route error carries ErrClosed identity; 404 and 503 must not blur")
	}

	// The router is a stream.Backend: an RPS2 server fronting it serves
	// the fleet over the same wire protocol the backends speak.
	front := stream.NewServer(rt, stream.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	frontDone := make(chan error, 1)
	go func() { frontDone <- front.Serve(ln) }()
	cl, err := stream.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = cl.Close(cctx)
		_ = front.Close()
		<-frontDone
	}()
	out, err := cl.Do(ctx, "mnist@v2", [][]float64{in})
	if err != nil {
		t.Fatalf("infer through routed RPS2 front end: %v", err)
	}
	for j := range out[0].Scores {
		if out[0].Scores[j] != ref.Scores[j] {
			t.Fatalf("front-end score[%d] = %v, want %v", j, out[0].Scores[j], ref.Scores[j])
		}
	}
}

// TestRouterRetriesOnConnLoss pins the bounded-retry satellite with the
// fault injector on one backend's dialer: its connection drops after a
// fixed op count, over and over, while concurrent load keeps calls in
// flight — so drops catch live requests — yet no routed request may
// surface an error: each loss is retried once on the other backend.
//
// An op is a Read or a Write of the transport, and one of either now
// carries every frame that was ready: a lockstepped batch of replies is
// one Read, after which nothing is in flight for the next op's drop to
// catch. So the load does not stop at a fixed count but runs on (within
// a bound) until some drop has caught a live request.
func TestRouterRetriesOnConnLoss(t *testing.T) {
	b1 := startFleetBackend(t, newFleetRegistry(t, nil, "v1"), nil, stream.Options{})
	b2 := startFleetBackend(t, newFleetRegistry(t, nil, "v1"), nil, stream.Options{})
	inj := faultinject.New(faultinject.Config{Seed: 7, DropAfterOps: 10})
	cfgs := []BackendConfig{b1.config(), b2.config()}
	cfgs[0].Dial = inj.Dialer(b1.addr)
	rt := newTestRouter(t, Options{
		Backends:        cfgs,
		RefreshInterval: 50 * time.Millisecond,
		ProbeInterval:   time.Hour,
		Seed:            2,
	})
	ctx := context.Background()
	in := testInput(11)
	ref, err := b2.reg.Infer(ctx, "mnist", "v1", in)
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker, maxPerWorker = 4, 30, 3000
	var wg sync.WaitGroup
	errCh := make(chan error, workers*maxPerWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker || (i < maxPerWorker && rt.Stats().Retries == 0); i++ {
				res, err := rt.Infer(ctx, "mnist", "v1", in)
				if err != nil {
					errCh <- err
					continue
				}
				if len(res.Scores) != len(ref.Scores) {
					errCh <- fmt.Errorf("routed scores len %d, want %d", len(res.Scores), len(ref.Scores))
					continue
				}
				// Tolerance, not equality: under concurrent load requests
				// batch together, and batched accumulation order may move
				// the last ulp relative to the idle batch-of-1 reference.
				for j := range res.Scores {
					if d := res.Scores[j] - ref.Scores[j]; d > 1e-9 || d < -1e-9 {
						errCh <- fmt.Errorf("score[%d] = %v, want %v", j, res.Scores[j], ref.Scores[j])
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("routed infer surfaced %v; retries must absorb injected drops", err)
	}
	st := rt.Stats()
	if st.Retries == 0 {
		t.Fatalf("no retries recorded despite deterministic connection drops; inj=%+v rows=%+v", inj.Stats(), rt.Backends())
	}
	if st.NoBackend != 0 {
		t.Fatalf("no_backend = %d, want 0: the healthy backend never went away", st.NoBackend)
	}
	if rows := rt.Backends(); rows[0].Failures == 0 {
		t.Fatal("faulted backend recorded no failures")
	}
	inj.Disarm()
}

// typedUnavailable reports whether a routed error during an outage is one
// of the allowed typed shapes — transport loss or 503-unavailable. An
// untyped error during fleet faults is a bug.
func typedUnavailable(err error) bool {
	return errors.Is(err, stream.ErrConnLost) ||
		errors.Is(err, stream.ErrGoingAway) ||
		errors.Is(err, serve.ErrClosed)
}

// TestRouterBreakerOpensAndRecovers kills the only backend, watches the
// circuit open from probe failures, requires every in-outage error to be
// typed, then revives the backend on the same address and waits for the
// breaker's half-open probe to re-close the circuit with zero operator
// intervention.
func TestRouterBreakerOpensAndRecovers(t *testing.T) {
	b1 := startFleetBackend(t, newFleetRegistry(t, nil, "v1"), nil, stream.Options{})
	rt := newTestRouter(t, Options{
		Backends:        []BackendConfig{b1.config()},
		RefreshInterval: 50 * time.Millisecond,
		ProbeInterval:   20 * time.Millisecond,
		ProbeTimeout:    250 * time.Millisecond,
		Breaker:         BreakerConfig{Failures: 2, OpenBase: 25 * time.Millisecond, OpenMax: 100 * time.Millisecond},
		Seed:            3,
	})
	ctx := context.Background()
	in := testInput(13)

	if _, err := rt.Infer(ctx, "mnist", "v1", in); err != nil {
		t.Fatalf("healthy routed infer: %v", err)
	}

	b1.kill()

	// The probe loop must open the circuit on its own.
	deadline := time.Now().Add(5 * time.Second)
	for rt.Backends()[0].Breaker != "open" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened after kill; status %+v", rt.Backends()[0])
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Requests during the outage: always an error, always typed.
	for i := 0; i < 20; i++ {
		_, err := rt.Infer(ctx, "mnist", "v1", in)
		if err == nil {
			t.Fatal("routed infer succeeded against a dead fleet")
		}
		if !typedUnavailable(err) {
			t.Fatalf("outage error #%d not typed: %v", i, err)
		}
	}

	b1.revive()

	// Recovery is automatic: reconnect + half-open probe re-close the
	// circuit and traffic flows again.
	deadline = time.Now().Add(10 * time.Second)
	for {
		_, err := rt.Infer(ctx, "mnist", "v1", in)
		if err == nil {
			break
		}
		if !typedUnavailable(err) {
			t.Fatalf("post-revive error not typed: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never recovered after revive; status %+v", rt.Backends()[0])
		}
		time.Sleep(20 * time.Millisecond)
	}
	for rt.Backends()[0].Breaker != "closed" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never re-closed; status %+v", rt.Backends()[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRouterHalfOpenProbeSlotReleased pins the probe-slot release: a
// routed request admitted as the half-open probe that then fails for a
// non-backend reason (here: the caller's own expired deadline) must
// free the slot. Before the fix the breaker stayed half-open with the
// probe claimed forever — the health loop's TryProbe kept refusing and
// the backend was excluded from routing until restart.
func TestRouterHalfOpenProbeSlotReleased(t *testing.T) {
	b1 := startFleetBackend(t, newFleetRegistry(t, nil, "v1"), nil, stream.Options{})
	rt := newTestRouter(t, Options{
		Backends:        []BackendConfig{b1.config()},
		RefreshInterval: 50 * time.Millisecond,
		// The health prober must not be the one reclaiming the slot.
		ProbeInterval: time.Hour,
		Breaker:       BreakerConfig{Failures: 1, OpenBase: 10 * time.Millisecond, OpenMax: 20 * time.Millisecond},
		Seed:          6,
	})
	ctx := context.Background()
	in := testInput(23)
	if _, err := rt.Infer(ctx, "mnist", "v1", in); err != nil {
		t.Fatalf("healthy routed infer: %v", err)
	}

	// Trip the circuit, wait past the jittered backoff ceiling (1.5 *
	// OpenMax = 30ms), then route with an already-expired deadline:
	// pick() admits it as the half-open probe and it fails without
	// indicting the backend. (An expired deadline, not a cancelled
	// context: the client refuses it before sending, where a cancel merely
	// races the response.)
	rt.backends[0].br.Trip(time.Now())
	time.Sleep(50 * time.Millisecond)
	cctx, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if _, err := rt.Infer(cctx, "mnist", "v1", in); err == nil {
		t.Fatal("infer past its deadline succeeded")
	}

	// The slot must be free again: a later request claims it, succeeds,
	// and re-closes the circuit with zero operator intervention.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := rt.Infer(ctx, "mnist", "v1", in); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("probe slot leaked; status %+v", rt.Backends()[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
	for rt.Backends()[0].Breaker != "closed" {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never re-closed; status %+v", rt.Backends()[0])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRetryBudgetDisabled pins that a negative RetryBudget disables
// retries outright: the bucket starts empty and never accrues, so not
// even the burst allowance leaks retries through.
func TestRetryBudgetDisabled(t *testing.T) {
	var tb tokenBucket
	tb.init(-1, 10)
	if tb.take() {
		t.Fatal("disabled retry budget granted its initial burst")
	}
	for i := 0; i < 1000; i++ {
		tb.accrue()
	}
	if tb.take() {
		t.Fatal("disabled retry budget accrued tokens")
	}
}

// TestModelsFreshestWins pins the duplicate-id merge rule in Models():
// the row from the backend whose view refreshed most recently wins,
// regardless of configuration order.
func TestModelsFreshestWins(t *testing.T) {
	mk := func(weight float64, ts int64) *backend {
		b := &backend{}
		b.view.Store(&view{models: []serve.ModelInfo{
			{Name: "mnist", Version: "v1", InDim: 121, Weight: weight},
		}})
		b.lastRefresh.Store(ts)
		return b
	}
	// Stale view first in config order with a distinguishable Weight: the
	// fresher second backend's row must win the merge anyway.
	rt := &Router{backends: []*backend{mk(0.25, 100), mk(0.75, 200)}}
	models := rt.Models()
	if len(models) != 1 {
		t.Fatalf("merged models = %d rows, want 1", len(models))
	}
	if models[0].Weight != 0.75 {
		t.Fatalf("duplicate winner Weight = %v, want 0.75 (freshest view)", models[0].Weight)
	}
	// Same views, freshness reversed: now the first backend wins.
	rt = &Router{backends: []*backend{mk(0.25, 300), mk(0.75, 200)}}
	if models = rt.Models(); models[0].Weight != 0.25 {
		t.Fatalf("duplicate winner Weight = %v, want 0.25 (freshest view)", models[0].Weight)
	}
}

// slowModel delays every batch, so admission limits reliably engage.
type slowModel struct {
	model.Model
	delay time.Duration
}

func (m slowModel) Forward(batch *tensor.Tensor) *tensor.Tensor {
	time.Sleep(m.delay)
	return m.Model.Forward(batch)
}

func (m slowModel) Replicate() (model.Model, error) {
	r, err := m.Model.Replicate()
	if err != nil {
		return nil, err
	}
	return slowModel{Model: r, delay: m.delay}, nil
}

// TestRouterOverloadPassthrough pins the no-retry rule for typed sheds: a
// backend's *admission.OverloadError reaches the caller with its
// RetryAfter hint intact, consumes no retry budget, and does not move the
// breaker — shedding is the backend working as designed.
func TestRouterOverloadPassthrough(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m, err := model.New("mnist", "v1", nn.Arch2(rng), program.CompileOptions{InShape: []int{121}})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Options{Workers: 2, MaxBatch: 1})
	if err := reg.Register(slowModel{Model: m, delay: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	ctrl := admission.New(admission.Config{MaxInflight: 1, RetryAfter: 10 * time.Millisecond})
	b1 := startFleetBackend(t, reg, nil, stream.Options{Admission: ctrl})
	rt := newTestRouter(t, Options{
		Backends:        []BackendConfig{b1.config()},
		RefreshInterval: 50 * time.Millisecond,
		ProbeInterval:   time.Hour,
		Seed:            4,
	})
	ctx := context.Background()
	in := testInput(17)

	var wg sync.WaitGroup
	var sheds, successes atomic64
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := rt.Infer(ctx, "mnist", "v1", in)
			if err == nil {
				successes.add(1)
				return
			}
			var oe *admission.OverloadError
			if !errors.As(err, &oe) {
				t.Errorf("overloaded infer error = %v, want *admission.OverloadError", err)
				return
			}
			if oe.RetryAfter <= 0 {
				t.Errorf("OverloadError lost its RetryAfter hint: %+v", oe)
			}
			sheds.add(1)
		}()
	}
	wg.Wait()
	if sheds.load() == 0 {
		t.Fatal("no typed sheds under 12x concurrency against MaxInflight=1")
	}
	if successes.load() == 0 {
		t.Fatal("no successes: overload must shed excess, not everything")
	}
	if st := rt.Stats(); st.Retries != 0 {
		t.Fatalf("retries = %d, want 0: typed overload must never be retried", st.Retries)
	}
	if row := rt.Backends()[0]; row.Breaker != "closed" || row.Failures != 0 {
		t.Fatalf("overload moved the breaker: %+v", row)
	}
}

// atomic64 is a tiny test counter (avoids importing sync/atomic names
// into the assertion noise).
type atomic64 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic64) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic64) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

// TestRouterDrainExcludesBackend pins the drain admin semantics: a
// draining backend stops receiving new routed work immediately, traffic
// fails over with zero errors, undrain restores it, and draining the
// whole fleet yields the typed 503 — not a 404, the routes still exist.
func TestRouterDrainExcludesBackend(t *testing.T) {
	b1 := startFleetBackend(t, newFleetRegistry(t, nil, "v1"), nil, stream.Options{})
	b2 := startFleetBackend(t, newFleetRegistry(t, nil, "v1"), nil, stream.Options{})
	rt := newTestRouter(t, Options{
		Backends:        []BackendConfig{b1.config(), b2.config()},
		RefreshInterval: 50 * time.Millisecond,
		ProbeInterval:   time.Hour,
		Seed:            5,
	})
	ctx := context.Background()
	in := testInput(19)

	// Unloaded sequential traffic ties on pending and lands on the first
	// backend — a fixed baseline for the exclusion assertion.
	for i := 0; i < 10; i++ {
		if _, err := rt.Infer(ctx, "mnist", "v1", in); err != nil {
			t.Fatalf("baseline infer: %v", err)
		}
	}
	if rows := rt.Backends(); rows[0].Requests != 10 {
		t.Fatalf("baseline placement: %d on b1, want 10", rows[0].Requests)
	}

	if !rt.SetDraining(b1.addr, true) {
		t.Fatal("SetDraining: backend not found")
	}
	for i := 0; i < 20; i++ {
		if _, err := rt.Infer(ctx, "mnist", "v1", in); err != nil {
			t.Fatalf("infer during drain failover: %v", err)
		}
	}
	rows := rt.Backends()
	if !rows[0].Draining {
		t.Fatal("status row does not show draining")
	}
	if rows[0].Requests != 10 {
		t.Fatalf("draining backend received %d new requests", rows[0].Requests-10)
	}
	if rows[1].Requests != 20 {
		t.Fatalf("failover backend has %d requests, want 20", rows[1].Requests)
	}

	// Whole fleet draining: known route, no capacity — typed 503.
	rt.SetDraining(b2.addr, true)
	_, err := rt.Infer(ctx, "mnist", "v1", in)
	if !errors.Is(err, serve.ErrClosed) || errors.Is(err, serve.ErrNotFound) {
		t.Fatalf("fully-drained fleet error = %v, want ErrClosed identity without ErrNotFound", err)
	}

	// Undrain restores routing.
	rt.SetDraining(b1.addr, false)
	if _, err := rt.Infer(ctx, "mnist", "v1", in); err != nil {
		t.Fatalf("infer after undrain: %v", err)
	}
	if rows := rt.Backends(); rows[0].Requests != 11 {
		t.Fatalf("undrained backend has %d requests, want 11", rows[0].Requests)
	}

	if rt.SetDraining("203.0.113.1:1", true) {
		t.Fatal("SetDraining accepted an unknown address")
	}
}

// TestRouterBackendLossIs503 is the regression test for the error→status
// policy's transport-loss arm: when the one backend dies with requests in
// flight and no retry is possible, the loss must reach HTTP clients as 503
// and RPS2 clients as an error with serve.ErrClosed identity (what
// isBackendFailure assumes of every hop) — not as a 400 that blames the
// client's input. The "backend" is a bare listener that accepts the
// router's connection, swallows request frames and is then cut, so both
// requests are provably in flight when the transport dies.
func TestRouterBackendLossIs503(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := ln.Accept()
		ln.Close() // one connection only: once cut, the backend stays dead
		if err == nil {
			accepted <- nc
		}
	}()
	view := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/models" {
			http.NotFound(w, r)
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"models": []serve.ModelInfo{
			{Name: "mnist", Version: "v1", Latest: true, InDim: 121, OutDim: 10},
		}})
	}))
	defer view.Close()
	rt := newTestRouter(t, Options{
		Backends:        []BackendConfig{{Addr: ln.Addr().String(), HTTPURL: view.URL}},
		RefreshInterval: time.Hour,
		ProbeInterval:   time.Hour,
		RetryBudget:     -1,
		Seed:            1,
	})
	backendConn := <-accepted

	httpFront := httptest.NewServer(rt.Mux(nil))
	defer httpFront.Close()
	front := stream.NewServer(rt, stream.Options{})
	fln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	frontDone := make(chan error, 1)
	go func() { frontDone <- front.Serve(fln) }()
	cl, err := stream.Dial(fln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = cl.Close(cctx)
		_ = front.Close()
		<-frontDone
	}()

	in := testInput(3)
	httpStatus := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(map[string]any{"input": in})
		resp, err := http.Post(httpFront.URL+"/v1/models/mnist/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			httpStatus <- 0
			return
		}
		resp.Body.Close()
		httpStatus <- resp.StatusCode
	}()
	streamErr := make(chan error, 1)
	go func() {
		_, err := cl.Do(context.Background(), "mnist", [][]float64{in})
		streamErr <- err
	}()

	// Both requests are on the wire to the backend; now it dies.
	br := bufio.NewReader(backendConn)
	var f stream.Frame
	for i := 0; i < 2; i++ {
		if err := stream.DecodeFrame(br, &f); err != nil {
			t.Fatalf("reading routed frame %d at the backend: %v", i, err)
		}
	}
	backendConn.Close()

	if got := <-httpStatus; got != http.StatusServiceUnavailable {
		t.Errorf("HTTP front answered %d for a lost backend, want 503", got)
	}
	if err := <-streamErr; !errors.Is(err, serve.ErrClosed) {
		t.Errorf("RPS2 front error = %v, want serve.ErrClosed identity", err)
	}
}
