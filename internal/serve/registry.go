package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/model"
)

// Registry errors. The HTTP layer maps ErrNotFound to 404; ErrExists only
// arises from library registration (no HTTP endpoint registers models).
var (
	// ErrNotFound is returned when no registered model matches the
	// requested name (or name@version).
	ErrNotFound = errors.New("serve: model not found")
	// ErrExists is returned by Register when the name@version identity is
	// already taken; register a new version instead of overwriting one.
	ErrExists = errors.New("serve: model version already registered")
)

// Latest is the version alias that resolves to a name's routed version:
// the A/B split when weights are set, otherwise the most recently
// registered (or explicitly promoted) version.
const Latest = "latest"

// Registry is the multi-model router: any number of versioned models, each
// behind its own Server (own batcher, replica pool and result cache), are
// served concurrently and addressed by "name@version" or by bare name
// through the "latest" alias. Registration, retirement and promotion are
// atomic with respect to routing, so models hot-swap under live traffic;
// an Infer addressed through the alias transparently re-resolves if its
// version retires mid-flight, so a hot swap never fails alias-addressed
// requests. A Registry is safe for use by any number of goroutines.
type Registry struct {
	opts Options

	mu      sync.RWMutex
	entries map[string]*entry   // name@version → serving instance
	latest  map[string]string   // name → version the alias points to
	routes  map[string]*abRoute // name → weighted A/B split, if configured
	seq     uint64              // registration order, for latest re-pointing
	closed  bool
}

// entry is one registered model version.
type entry struct {
	srv *Server
	seq uint64 // registration order
}

// abRoute is a smooth weighted round-robin over a name's versions: each
// pick advances every arm by its weight and takes the largest accumulator,
// then debits the total. Proportions are exact over any window (no
// sampling noise), which is what the routing-distribution tests pin.
type abRoute struct {
	mu   sync.Mutex
	arms []abArm
}

type abArm struct {
	version string
	weight  float64
	current float64
}

//repro:noalloc
func (r *abRoute) pick() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0.0
	best := 0
	for i := range r.arms {
		r.arms[i].current += r.arms[i].weight
		total += r.arms[i].weight
		if r.arms[i].current > r.arms[best].current {
			best = i
		}
	}
	r.arms[best].current -= total
	return r.arms[best].version
}

// weights returns the normalised weight per version.
func (r *abRoute) weights() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0.0
	for _, a := range r.arms {
		total += a.weight
	}
	out := make(map[string]float64, len(r.arms))
	for _, a := range r.arms {
		out[a.version] = a.weight / total
	}
	return out
}

// rawWeights returns the as-configured (unnormalised) weight per version.
func (r *abRoute) rawWeights() map[string]float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.arms))
	for _, a := range r.arms {
		out[a.version] = a.weight
	}
	return out
}

// ModelInfo describes one registered model version — the /v1/models
// listing entry.
type ModelInfo struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	// Latest reports whether the name's "latest" alias points here.
	Latest  bool  `json:"latest"`
	InDim   int   `json:"in_dim"`
	OutDim  int   `json:"out_dim"`
	InShape []int `json:"in_shape"`
	// Weight is this version's normalised share of the name's A/B split,
	// 0 when no split is configured.
	Weight float64 `json:"weight,omitempty"`
	Stats  Stats   `json:"stats"`
}

// NewRegistry returns an empty registry whose registered models are served
// with opts (per-model batcher, replica pool and cache instances; zero
// fields select the Server defaults).
func NewRegistry(opts Options) *Registry {
	return &Registry{
		opts:    opts,
		entries: make(map[string]*entry),
		latest:  make(map[string]string),
		routes:  make(map[string]*abRoute),
	}
}

// Register starts serving m under its name@version identity and points the
// name's "latest" alias at it. Registering an identity twice is ErrExists;
// hot-swapping a model means registering the new version and retiring the
// old one, both of which are safe under live traffic.
func (r *Registry) Register(m model.Model) error {
	if m == nil {
		return errors.New("serve: nil model")
	}
	if err := model.ValidateName("name", m.Name()); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := model.ValidateName("version", m.Version()); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if m.Version() == Latest {
		// The resolver treats "latest" as the alias, so a model registered
		// under that literal version could never be addressed again once
		// another version existed.
		return fmt.Errorf("serve: version %q is reserved for the alias", Latest)
	}
	id := ModelID(m)

	// Pre-flight under the read path only: the server (replica pool,
	// scheduler goroutines) is built outside the lock so a slow model
	// replication never stalls routing.
	r.mu.RLock()
	closed := r.closed
	_, dup := r.entries[id]
	r.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if dup {
		return fmt.Errorf("%w: %s", ErrExists, id)
	}
	srv, err := NewModel(m, r.opts)
	if err != nil {
		return err
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		srv.Close()
		return ErrClosed
	}
	if _, ok := r.entries[id]; ok {
		r.mu.Unlock()
		srv.Close()
		return fmt.Errorf("%w: %s", ErrExists, id)
	}
	r.seq++
	r.entries[id] = &entry{srv: srv, seq: r.seq}
	r.latest[m.Name()] = m.Version()
	r.mu.Unlock()
	return nil
}

// Retire atomically stops routing to name@version, re-points the "latest"
// alias to the most recently registered surviving version (or drops the
// name entirely when none remains), removes the version from any A/B
// split (dissolving a split left with fewer than two arms, so the name
// falls back to alias routing), and then drains the version's in-flight
// requests. Alias-addressed
// Infer calls racing the retirement re-resolve and land on a surviving
// version; only requests pinned to the retired version observe an error.
func (r *Registry) Retire(name, version string) error {
	id := model.ID(name, version)
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(r.entries, id)
	if r.latest[name] == version {
		// Re-point the alias at the newest surviving version of the name.
		var next string
		var nextSeq uint64
		for otherID, oe := range r.entries {
			n, v := model.ParseID(otherID)
			if n == name && oe.seq > nextSeq {
				next, nextSeq = v, oe.seq
			}
		}
		if next == "" {
			delete(r.latest, name)
		} else {
			r.latest[name] = next
		}
	}
	if route, ok := r.routes[name]; ok {
		route.mu.Lock()
		arms := route.arms[:0]
		for _, a := range route.arms {
			if a.version != version {
				arms = append(arms, a)
			}
		}
		route.arms = arms
		degenerate := len(arms) <= 1
		route.mu.Unlock()
		if degenerate {
			// A split needs at least two arms to split anything. Dropping
			// a single-arm remnant returns the name to alias routing —
			// otherwise the documented hot-swap sequence (Register new,
			// Retire old) would strand 100% of routed traffic on the
			// surviving canary arm while the alias points at the new
			// version.
			delete(r.routes, name)
		}
	}
	r.mu.Unlock()

	// Drain outside the lock: Close waits for in-flight batches, and
	// routing must not stall behind them.
	e.srv.Close()
	return nil
}

// Promote points name's "latest" alias at an already-registered version —
// an instant rollback/rollforward that moves no model data. Any A/B split
// on the name is cleared: routed traffic resolves through the split before
// the alias, so leaving the split in place would make the promotion a
// silent no-op for exactly the traffic it is meant to move.
func (r *Registry) Promote(name, version string) error {
	id := model.ID(name, version)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	r.latest[name] = version
	delete(r.routes, name)
	return nil
}

// SetWeights installs a weighted A/B split over name's versions: requests
// addressed to the bare name (or the "latest" alias) are routed across the
// given versions in exact proportion to their weights. Every version must
// be registered and every weight positive. A nil or empty map clears the
// split, returning the name to plain latest-alias routing.
func (r *Registry) SetWeights(name string, weights map[string]float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(weights) == 0 {
		delete(r.routes, name)
		return nil
	}
	route := &abRoute{arms: make([]abArm, 0, len(weights))}
	for version, w := range weights {
		// !(w > 0) also catches NaN, which would otherwise poison the
		// round-robin accumulators and route all traffic to one arm.
		if !(w > 0) || math.IsInf(w, 1) {
			return fmt.Errorf("serve: weight %g for %s outside (0, +Inf)", w, model.ID(name, version))
		}
		if _, ok := r.entries[model.ID(name, version)]; !ok {
			return fmt.Errorf("%w: %s", ErrNotFound, model.ID(name, version))
		}
		route.arms = append(route.arms, abArm{version: version, weight: w})
	}
	// Deterministic arm order so the smooth-WRR pick sequence is
	// reproducible for a given weight map.
	sort.Slice(route.arms, func(i, j int) bool { return route.arms[i].version < route.arms[j].version })
	r.routes[name] = route
	return nil
}

// Weights returns name's current A/B split exactly as configured — the
// raw, unnormalised weights passed to SetWeights — or nil when the name
// has no split. The canary controller snapshots this before installing
// its ramp so a rollback can restore the precise pre-canary state, not a
// normalised approximation of it.
func (r *Registry) Weights(name string) map[string]float64 {
	r.mu.RLock()
	route, ok := r.routes[name]
	r.mu.RUnlock()
	if !ok {
		return nil
	}
	return route.rawWeights()
}

// resolve maps (name, version) to the serving instance. An empty version
// or the "latest" alias routes: through the A/B split when one is
// configured, otherwise to the alias target.
//
//repro:noalloc
func (r *Registry) resolve(name, version string) (*Server, error) {
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		return nil, ErrClosed
	}
	if version == "" || version == Latest {
		if route, ok := r.routes[name]; ok {
			version = route.pick()
		} else if v, ok := r.latest[name]; ok {
			version = v
		} else {
			r.mu.RUnlock()
			return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
	}
	//repro:lint-ignore noalloc the composite registry key is one small string per routed request
	e, ok := r.entries[model.ID(name, version)]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, model.ID(name, version))
	}
	return e.srv, nil
}

// Infer routes one request to the named model and blocks until it is
// answered. version "" (or "latest") selects the routed version — the A/B
// split when configured, the latest alias otherwise; a concrete version
// pins the request to that registered instance. A request that loses the
// race with a Retire (its resolved server closed before admission) simply
// re-resolves: alias-addressed traffic lands on a surviving version, so
// hot-swapping never surfaces errors to routed callers, while a pinned
// request finds its version gone and reports ErrNotFound — never the
// retired server's ErrClosed.
func (r *Registry) Infer(ctx context.Context, name, version string, input []float64) (Result, error) {
	return r.InferInto(ctx, name, version, input, nil)
}

// InferInto is Infer writing the result's scores into the caller-owned
// buffer scores (nil allocates): the allocation-free form for high-QPS
// callers that reuse one buffer per goroutine. See Server.InferInto for
// the buffer-ownership contract.
//
//repro:noalloc
func (r *Registry) InferInto(ctx context.Context, name, version string, input, scores []float64) (Result, error) {
	for {
		srv, err := r.resolve(name, version)
		if err != nil {
			return Result{}, err
		}
		res, err := srv.InferInto(ctx, input, scores)
		if errors.Is(err, ErrClosed) {
			// The resolved version retired between resolution and
			// admission. Re-resolve: Retire removes the entry before
			// closing its server, so a pinned version now yields
			// ErrNotFound and an alias yields a survivor; a closed
			// *registry* fails resolve above. Either way the loop exits.
			continue
		}
		return res, err
	}
}

// Stats returns the counters of one registered model version. An empty or
// "latest" version resolves through the alias (but never advances the A/B
// rotation — stats polling must not skew a measured split).
func (r *Registry) Stats(name, version string) (Stats, error) {
	r.mu.RLock()
	if version == "" || version == Latest {
		v, ok := r.latest[name]
		if !ok {
			r.mu.RUnlock()
			return Stats{}, fmt.Errorf("%w: %s", ErrNotFound, name)
		}
		version = v
	}
	e, ok := r.entries[model.ID(name, version)]
	r.mu.RUnlock()
	if !ok {
		return Stats{}, fmt.Errorf("%w: %s", ErrNotFound, model.ID(name, version))
	}
	return e.srv.Stats(), nil
}

// Len returns the number of registered model versions. Unlike Models it
// takes no per-model stats snapshots, so it is cheap enough for liveness
// probes.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Models lists every registered version, sorted by name then version — the
// /v1/models listing.
func (r *Registry) Models() []ModelInfo {
	r.mu.RLock()
	infos := make([]ModelInfo, 0, len(r.entries))
	for id, e := range r.entries {
		name, version := model.ParseID(id)
		m := e.srv.Model()
		info := ModelInfo{
			Name:    name,
			Version: version,
			Latest:  r.latest[name] == version,
			InDim:   m.InDim(),
			OutDim:  m.OutDim(),
			InShape: m.InShape(),
			Stats:   e.srv.Stats(),
		}
		if route, ok := r.routes[name]; ok {
			info.Weight = route.weights()[version]
		}
		infos = append(infos, info)
	}
	r.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Name != infos[j].Name {
			return infos[i].Name < infos[j].Name
		}
		return infos[i].Version < infos[j].Version
	})
	return infos
}

// Close retires every registered model and rejects further registrations
// and inferences with ErrClosed. Close is idempotent and waits for all
// in-flight requests to drain.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	entries := make([]*entry, 0, len(r.entries))
	for id, e := range r.entries {
		entries = append(entries, e)
		delete(r.entries, id)
	}
	clear(r.latest)
	clear(r.routes)
	r.mu.Unlock()
	for _, e := range entries {
		e.srv.Close()
	}
}
