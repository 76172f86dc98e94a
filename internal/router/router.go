// Package router is the fleet tier: a shared-nothing proxy that fronts N
// cmd/serve backends over persistent RPS2 connections and re-exposes the
// same HTTP and RPS2 front ends, so one process's capacity stops being
// the deployment's ceiling. Each backend keeps its own registry,
// admission controller and batch schedulers; the router holds no model
// state at all. What it adds is placement and fault tolerance:
//
//   - Routing: requests keyed by "name" or "name@version" go to the
//     least-loaded healthy backend whose propagated registry view
//     (periodic /v1/models scrape) holds the route. The route string is
//     forwarded verbatim, so alias resolution and A/B weight splits keep
//     happening in the backend's registry — the router adds a tier
//     without changing serving semantics.
//   - Health: a per-backend checker (synthetic probe infer plus
//     scrape-derived p99/shed-rate from /metrics) feeds a three-state
//     circuit breaker with jittered exponential reopen backoff.
//   - Retries: an idempotent infer that fails with a transport-shaped
//     error (connection lost, 503, backend draining) is retried once on
//     a *different* healthy backend, under a token-bucket retry budget
//     (~10% of traffic) so retry storms cannot amplify an outage. Typed
//     *admission.OverloadError sheds pass through untouched — the
//     backend said "no", and saying it louder elsewhere helps nobody.
//   - Drain: marking a backend draining (admin endpoint) excludes it
//     from routing while its in-flight work completes via the stream
//     layer's GOAWAY handshake; nothing accepted is lost.
package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/serve/admission"
	"repro/internal/serve/stream"
)

// ErrNoBackend is returned when no healthy, non-draining backend holds
// the requested route. It wraps serve.ErrClosed so the HTTP layer maps
// it to 503 and the RPS2 status codec keeps its typed identity on the
// wire.
var ErrNoBackend = fmt.Errorf("router: no healthy backend for route (%w)", serve.ErrClosed)

// ErrUnknownRoute is returned when no backend's view holds the route at
// all — not an availability problem but an addressing one, so it wraps
// serve.ErrNotFound and surfaces as 404, exactly as a single process
// answers a model it does not serve.
var ErrUnknownRoute = fmt.Errorf("router: no backend holds route (%w)", serve.ErrNotFound)

// Options parameterises a Router.
type Options struct {
	// Backends lists the fronted processes. At least one is required.
	Backends []BackendConfig
	// Conns is the number of persistent RPS2 connections per backend
	// (default 1; raise it to overlap more pipelining windows).
	Conns int
	// RefreshInterval is the view/health scrape cadence (default 500ms).
	RefreshInterval time.Duration
	// ProbeInterval is the synthetic probe infer cadence (default
	// 250ms). Probes are also how an open circuit discovers recovery,
	// so this bounds re-close latency together with the breaker backoff.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe infer (default 250ms).
	ProbeTimeout time.Duration
	// Breaker parameterises every backend's circuit breaker.
	Breaker BreakerConfig
	// RetryBudget is the token-bucket accrual per routed request
	// (default 0.1 — retries bounded to ~10% of traffic; burst up to
	// 10 tokens). Zero keeps the default; negative disables retries.
	RetryBudget float64
	// MaxP99 trips a backend's breaker when its scrape-derived windowed
	// p99 exceeds it (0 disables the check).
	MaxP99 time.Duration
	// MaxShedRate trips the breaker when the backend's windowed
	// shed-rate (sheds / requests) exceeds it (0 disables).
	MaxShedRate float64
	// MinWindow is the minimum windowed request count before p99 and
	// shed-rate verdicts apply (default 16) — thin windows are noise.
	MinWindow int
	// Affinity switches inference routing from least-loaded to rendezvous
	// (highest-random-weight) hashing keyed on the route: one model
	// version's traffic sticks to one backend while it stays healthy, so
	// that backend's exact-input LRU stays warm instead of being diluted
	// across the fleet. The HTTP-proxied
	// endpoints (vector tier, /embed) always use rendezvous placement
	// regardless of this setting — a vector collection must live
	// somewhere definite.
	Affinity bool
	// ProxyTimeout bounds one HTTP-proxied call (vector/embed endpoints;
	// default 30s).
	ProxyTimeout time.Duration
	// Metrics registers the router's series when set.
	Metrics *metrics.Registry
	// Seed roots the breaker/backoff jitter (0 seeds from the clock).
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Conns <= 0 {
		o.Conns = 1
	}
	if o.RefreshInterval <= 0 {
		o.RefreshInterval = 500 * time.Millisecond
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 250 * time.Millisecond
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 250 * time.Millisecond
	}
	if o.RetryBudget == 0 {
		o.RetryBudget = 0.1
	}
	if o.MinWindow <= 0 {
		o.MinWindow = 16
	}
	if o.ProxyTimeout <= 0 {
		o.ProxyTimeout = 30 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = time.Now().UnixNano()
	}
	return o
}

// Router fronts a fleet of backends. It implements stream.Backend, so
// the same RPS2 Server that exposes a single registry exposes a whole
// fleet when handed a Router instead.
type Router struct {
	opts     Options
	backends []*backend

	// routes interns "name@version" concatenations so the routed hot
	// path stays allocation-free for pinned requests too.
	routesMu sync.RWMutex
	routes   map[routeKey]string

	budget tokenBucket

	// proxyClient carries the HTTP-proxied endpoints (vector tier,
	// /embed) to backend HTTP surfaces, rendezvous-placed by key.
	proxyClient *http.Client

	retries        atomic.Uint64
	noBackend      atomic.Uint64
	routed         atomic.Uint64
	proxied        atomic.Uint64
	proxyFailovers atomic.Uint64

	stop   chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
}

type routeKey struct{ name, version string }

// New dials every backend (reconnecting clients, so a backend that is
// down at start is dialed lazily — but the initial dial failing is
// surfaced to keep configuration errors loud) and starts the health
// loops.
func New(opts Options) (*Router, error) {
	opts = opts.withDefaults()
	if len(opts.Backends) == 0 {
		return nil, errors.New("router: no backends configured")
	}
	rt := &Router{
		opts:        opts,
		routes:      make(map[routeKey]string),
		stop:        make(chan struct{}),
		proxyClient: &http.Client{Timeout: opts.ProxyTimeout},
	}
	rt.budget.init(opts.RetryBudget, 10)
	for i, cfg := range opts.Backends {
		b := &backend{
			cfg: cfg,
			br:  newBreaker(opts.Breaker, opts.Seed+int64(i)),
		}
		for c := 0; c < opts.Conns; c++ {
			cl, err := stream.DialOptions(cfg.Addr, stream.ClientOptions{
				Dial:      cfg.Dial,
				Reconnect: true,
			})
			if err != nil {
				rt.closeClients()
				return nil, fmt.Errorf("router: dial backend %s: %w", cfg.Addr, err)
			}
			b.clients = append(b.clients, cl)
		}
		rt.backends = append(rt.backends, b)
	}
	if opts.Metrics != nil {
		rt.registerMetrics(opts.Metrics)
	}
	// One synchronous refresh round so the router does not route blind
	// for the first interval — before the health loops start, so the
	// non-atomic scrape state (prevLatency etc., owned by the health
	// loop) is never touched by two goroutines at once.
	for _, b := range rt.backends {
		rt.refresh(b)
	}
	rt.wg.Add(len(rt.backends))
	for _, b := range rt.backends {
		go rt.healthLoop(b)
	}
	return rt, nil
}

func (rt *Router) closeClients() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	for _, b := range rt.backends {
		b.close(ctx)
	}
}

// Close stops the health loops and drains every backend connection.
func (rt *Router) Close(ctx context.Context) error {
	if rt.closed.Swap(true) {
		return nil
	}
	close(rt.stop)
	rt.wg.Wait()
	for _, b := range rt.backends {
		b.close(ctx)
	}
	return ctx.Err()
}

// route interns the wire route string for (name, version).
//
//repro:noalloc
func (rt *Router) route(name, version string) string {
	if version == "" {
		return name
	}
	k := routeKey{name, version}
	rt.routesMu.RLock()
	r, ok := rt.routes[k]
	rt.routesMu.RUnlock()
	if ok {
		return r
	}
	//repro:lint-ignore noalloc interning allocates once per distinct route, not per request
	return rt.internRoute(k)
}

func (rt *Router) internRoute(k routeKey) string {
	rt.routesMu.Lock()
	defer rt.routesMu.Unlock()
	if r, ok := rt.routes[k]; ok {
		return r
	}
	r := k.name + "@" + k.version
	rt.routes[k] = r
	return r
}

// pick selects the routable backend for route, skipping exclude (the
// backend a retry already failed on): rendezvous-ranked under
// Options.Affinity, least-loaded otherwise. Closed-breaker backends win;
// if none qualifies, a half-open-eligible backend may claim its probe
// slot and take the request.
//
//repro:noalloc
func (rt *Router) pick(route string, exclude *backend) *backend {
	if rt.opts.Affinity {
		return rt.pickAffine(route, exclude)
	}
	var best *backend
	var bestLoad int64
	for _, b := range rt.backends {
		if b == exclude || b.draining.Load() || !b.holds(route) || b.down() {
			continue
		}
		if !b.br.Closed() {
			continue
		}
		load := b.pending.Load()
		if best == nil || load < bestLoad {
			best, bestLoad = b, load
		}
	}
	if best != nil {
		return best
	}
	// No closed breaker: let one backend probe its way back.
	now := time.Now()
	for _, b := range rt.backends {
		if b == exclude || b.draining.Load() || !b.holds(route) || b.down() {
			continue
		}
		if b.br.TryProbe(now) {
			return b
		}
	}
	return nil
}

// InferInto routes one request — this is stream.Backend, the seam that
// lets cmd/router's RPS2 listener and HTTP mux reuse the stream server
// and handler shapes unchanged. The route string is forwarded verbatim;
// the chosen backend's registry resolves aliases and A/B splits.
//
//repro:noalloc
func (rt *Router) InferInto(ctx context.Context, name, version string, input, scores []float64) (serve.Result, error) {
	route := rt.route(name, version)
	rt.routed.Add(1)
	rt.budget.accrue()
	b := rt.pick(route, nil)
	if b == nil {
		rt.noBackend.Add(1)
		if !rt.holdsAnywhere(route) {
			return serve.Result{}, ErrUnknownRoute
		}
		return serve.Result{}, ErrNoBackend
	}
	res, err := b.do(ctx, route, input, scores)
	if err == nil {
		return res, nil
	}
	// Only a backend failure may try a different backend: transport-shaped
	// — connection loss, 503/closed, GOAWAY — so the request provably never
	// reached model execution, or reached a backend that refused it
	// wholesale. Infer is idempotent, so the single retry is safe; the
	// budget makes it bounded. A typed overload is a backend's deliberate
	// "no" (not a failure): passed through untouched, never retried.
	if !isBackendFailure(err) {
		return res, err
	}
	if !rt.budget.take() {
		return res, err
	}
	b2 := rt.pick(route, b)
	if b2 == nil {
		rt.noBackend.Add(1)
		return res, err
	}
	rt.retries.Add(1)
	return b2.do(ctx, route, input, scores)
}

// holdsAnywhere reports whether any backend's view — healthy or not —
// holds the route, separating "unknown model" (404) from "known but
// unavailable" (503).
//
//repro:noalloc
func (rt *Router) holdsAnywhere(route string) bool {
	for _, b := range rt.backends {
		if b.holds(route) {
			return true
		}
	}
	return false
}

// Infer is the single-result convenience form of InferInto.
func (rt *Router) Infer(ctx context.Context, name, version string, input []float64) (serve.Result, error) {
	return rt.InferInto(ctx, name, version, input, nil)
}

// isOverload reports a typed admission shed.
//
//repro:noalloc
func isOverload(err error) bool {
	var oe *admission.OverloadError
	//repro:lint-ignore noalloc errors.As with a concrete pointer target walks the chain without allocating
	return errors.As(err, &oe)
}

// isBackendFailure classifies errors that indict the backend (feed its
// breaker): transport loss and 503-shaped unavailability. Not-found,
// bad-request and caller-deadline errors are the request's fault, and
// overload sheds are the backend working as designed.
//
//repro:noalloc
func isBackendFailure(err error) bool {
	if errors.Is(err, stream.ErrConnLost) || errors.Is(err, stream.ErrGoingAway) {
		return true
	}
	if isOverload(err) {
		return false
	}
	return errors.Is(err, serve.ErrClosed)
}

// Backends snapshots every backend's status row.
func (rt *Router) Backends() []BackendStatus {
	out := make([]BackendStatus, len(rt.backends))
	for i, b := range rt.backends {
		out[i] = b.status()
	}
	return out
}

// SetDraining marks the backend serving addr as draining (true: routing
// stops sending it new work) or restores it. It reports whether a
// backend with that addr exists.
func (rt *Router) SetDraining(addr string, draining bool) bool {
	for _, b := range rt.backends {
		if b.cfg.Addr == addr {
			b.draining.Store(draining)
			return true
		}
	}
	return false
}

// Models merges every backend's propagated view into one deduplicated
// model list (by name@version), preferring the row from the backend
// whose view is freshest. This is the router's /v1/models answer.
func (rt *Router) Models() []serve.ModelInfo {
	seen := make(map[string]serve.ModelInfo)
	fresh := make(map[string]int64) // id -> lastRefresh of the winning row
	order := make([]string, 0, 8)
	for _, b := range rt.backends {
		v := b.view.Load()
		if v == nil {
			continue
		}
		ts := b.lastRefresh.Load()
		for _, m := range v.models {
			id := m.Name + "@" + m.Version
			if prev, dup := fresh[id]; dup {
				if ts <= prev {
					continue
				}
			} else {
				order = append(order, id)
			}
			seen[id] = m
			fresh[id] = ts
		}
	}
	out := make([]serve.ModelInfo, 0, len(order))
	for _, id := range order {
		out = append(out, seen[id])
	}
	return out
}

// Stats is the router's own counter snapshot.
type Stats struct {
	Routed    uint64 `json:"routed"`
	Retries   uint64 `json:"retries"`
	NoBackend uint64 `json:"no_backend"`
	// Proxied counts HTTP-proxied calls (vector tier, /embed) that
	// reached a backend; ProxyFailovers counts transport failures that
	// fell to the next rendezvous rank.
	Proxied        uint64 `json:"proxied"`
	ProxyFailovers uint64 `json:"proxy_failovers"`
}

// Stats snapshots the router counters.
func (rt *Router) Stats() Stats {
	return Stats{
		Routed:         rt.routed.Load(),
		Retries:        rt.retries.Load(),
		NoBackend:      rt.noBackend.Load(),
		Proxied:        rt.proxied.Load(),
		ProxyFailovers: rt.proxyFailovers.Load(),
	}
}

// tokenBucket is the retry budget: every routed request accrues a
// fraction of a token, a retry spends a whole one, so retries are
// bounded to roughly the accrual rate times traffic — an outage cannot
// double the fleet's load. Scaled-integer atomics keep it lock- and
// allocation-free on the hot path.
type tokenBucket struct {
	level   atomic.Int64 // micro-tokens
	accrual int64        // micro-tokens per request
	max     int64        // cap in micro-tokens
}

func (tb *tokenBucket) init(perRequest float64, burst int64) {
	if perRequest <= 0 {
		return // disabled: zero accrual, empty bucket — take() always fails
	}
	tb.accrual = int64(perRequest * 1e6)
	tb.max = burst * 1e6
	tb.level.Store(tb.max) // start full: early failures may retry
}

//repro:noalloc
func (tb *tokenBucket) accrue() {
	if tb.accrual == 0 {
		return
	}
	for {
		cur := tb.level.Load()
		next := cur + tb.accrual
		if next > tb.max {
			next = tb.max
		}
		if next == cur || tb.level.CompareAndSwap(cur, next) {
			return
		}
	}
}

//repro:noalloc
func (tb *tokenBucket) take() bool {
	for {
		cur := tb.level.Load()
		if cur < 1e6 {
			return false
		}
		if tb.level.CompareAndSwap(cur, cur-1e6) {
			return true
		}
	}
}
