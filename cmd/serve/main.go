// Command serve exposes the multi-model inference registry
// (internal/serve) over HTTP: the production-facing half the paper's
// deployment story implies once the Fig. 4 engine has produced trained
// bundles — one process serving the FC-MNIST and CONV-CIFAR reproductions
// (or a dense-versus-circulant A/B pair) side by side.
//
// Usage:
//
//	serve -model mnist=bundle1 -model cifar=bundle2 [flags]
//	serve -model mnist=bundle1 -model mnist@v2=bundle3 -weights mnist=v1:0.9,v2:0.1 [flags]
//	serve -demo fc=arch1 -demo conv=arch3 [flags]   # random weights, load testing
//	serve -demo mnist=arch1 -quantize mnist=12 \
//	      -weights mnist=v1:0.9,v1-q12:0.1 [flags]  # float vs fixed-point A/B
//
// Every registered model is one model.New call: the network compiled
// into an inference program with the options that name its build. -model
// and -demo compile the default float build; -quantize name[@version]=bits
// additionally registers an Int16Spectral fixed-point build of an
// already-loaded model under the derived version "<version>-q<bits>"
// (e.g. mnist@v1 → mnist@v1-q12) — the paper's embedded int16 deployment
// served side by side with the float build, ready for a -weights A/B
// split; -embed name[@version] registers the same network with its
// classifier head cut off as "<name>.embed". The exact-input LRU (-cache)
// is the one result cache.
//
// -model maps the bundle's params.bin read-only (engine.MapParameters):
// the network's weights are the file's pages, shared by every replica of
// a typed-op program and by every process serving the same file, and
// unmapped only after the registry has drained. Replace a served
// params.bin by writing a new file and renaming it over the old one, as
// cmd/train does; truncating it in place faults the server.
//
// Flags: [-addr :8080] [-workers N] [-batch 16] [-deadline 2ms] [-cache 1024]
// [-pprof] [-listen-tcp :9090] [-max-inflight N] [-fair-share N] [-quota name=N]
// [-slo 5ms] [-retry-after 50ms] [-canary name@base:name@cand]
// [-canary-interval 15s] [-canary-schedule 0.05,0.25,0.5]
// [-embed name[@version]]
//
// -canary starts the rollout autopilot (internal/canary) over an A/B
// pair: the candidate ramps through the -canary-schedule weight steps,
// each held until its latency quantiles and score drift stay healthy,
// then is promoted to the name's "latest" alias; a sustained breach rolls
// the split back to its pre-canary state. Every transition is logged as
// one JSON line. Typical use with a quantised sibling:
//
//	serve -demo mnist=arch1 -quantize mnist=12 -canary mnist@v1:mnist@v1-q12
//
// With -pprof, net/http/pprof is mounted under /debug/pprof/ so a live
// server can be CPU- and heap-profiled under real traffic.
//
// With -listen-tcp, the same registry is additionally served over the
// RPS2 streaming protocol (wire format v2; see internal/serve/stream):
// persistent TCP connections carrying many pipelined request frames, with
// a GOAWAY drain on SIGTERM that completes every in-flight frame before
// the process exits — a rolling model swap behind a TCP load balancer
// loses no requests.
//
// -max-inflight and -quota enable admission control shared across both
// front ends: past the caps, HTTP posts get 429 + Retry-After and stream
// frames get a 429 status frame, in both cases before any inference work
// is spent. -slo additionally sheds requests that already waited longer
// than the target inside the batching queue — deadline-aware scheduling
// that refuses to burn a forward pass on an answer nobody is waiting for.
//
// Endpoints (the inference posts are one shared front end,
// internal/serve/httpapi; see internal/serve/wire.go for the binary codec
// selected by Content-Type):
//
//	GET  /metrics                       Prometheus text exposition: per-model
//	                                    latency/batch histograms, queue and
//	                                    cache gauges, admission and stream
//	                                    counters — the same numbers /stats
//	                                    reports, scraped from one registry
//	GET  /healthz                       liveness: {"status":"ok",...}
//	GET  /v1/models                     registered models, versions, stats
//	POST /v1/models/{id}/infer          id = name (routed) or name@version
//	POST /v1/models/{id}/embed          id = an -embed base model
//	GET  /v1/models/{id}/stats          per-version serving counters
//
// The server batches concurrent /infer requests into single forward passes
// across a per-model pool of replicas; see internal/serve for the
// scheduler's and registry's contracts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"encoding/json"

	"repro/internal/canary"
	"repro/internal/embed"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/program"
	"repro/internal/serve"
	"repro/internal/serve/admission"
	"repro/internal/serve/stream"
	"repro/internal/vector"
)

// modelFlag collects repeated "-model name[@version]=value" occurrences.
type modelFlag struct{ specs []string }

func (f *modelFlag) String() string     { return strings.Join(f.specs, ",") }
func (f *modelFlag) Set(s string) error { f.specs = append(f.specs, s); return nil }

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	addr := flag.String("addr", ":8080", "HTTP listen address")
	var models, demos, weights, quantize modelFlag
	flag.Var(&models, "model", "register a trained bundle: name[@version]=dir (repeatable)")
	flag.Var(&demos, "demo", "register a randomly-initialised built-in architecture: name[@version]=arch1|arch2|arch3, or bare arch1|arch2|arch3 (repeatable)")
	flag.Var(&weights, "weights", "A/B split for a name: name=v1:0.9,v2:0.1 (repeatable)")
	flag.Var(&quantize, "quantize", "also register an int16 fixed-point build of a loaded model: name[@version]=bits (repeatable)")
	workers := flag.Int("workers", 0, "model replicas per registered model (default: GOMAXPROCS)")
	batch := flag.Int("batch", 16, "max requests coalesced into one forward pass")
	deadline := flag.Duration("deadline", 2*time.Millisecond, "max time to hold an open batch")
	cache := flag.Int("cache", 1024, "LRU result-cache entries per model (0 disables)")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ for live profiling")
	listenTCP := flag.String("listen-tcp", "", "also serve the RPS2 streaming protocol (wire v2) on this TCP address (empty disables)")
	maxInflight := flag.Int("max-inflight", 0, "admission control: max requests in flight process-wide across HTTP and stream (0 disables)")
	fairShare := flag.Int("fair-share", 0, "admission control: max in-flight requests per stream connection (0 disables; sheds with reason \"fairness\")")
	var quotas modelFlag
	flag.Var(&quotas, "quota", "admission control: per-model inflight quota, name=N (repeatable)")
	slo := flag.Duration("slo", 0, "shed requests queued longer than this before running them (0 disables)")
	retryAfter := flag.Duration("retry-after", 50*time.Millisecond, "Retry-After hint attached to shed responses")
	var canaries modelFlag
	flag.Var(&canaries, "canary", "canary autopilot: ramp candidate against base, name@base:name@cand (repeatable)")
	canaryInterval := flag.Duration("canary-interval", 15*time.Second, "canary evaluation period")
	canarySchedule := flag.String("canary-schedule", "0.05,0.25,0.5", "canary weight ramp, ascending shares in (0,1)")
	var embeds modelFlag
	flag.Var(&embeds, "embed", "also serve a loaded model's penultimate-layer embedding under \"<name>.embed\": name[@version] (repeatable)")
	flag.Parse()

	loaded, err := loadModels(models.specs, demos.specs)
	if err != nil {
		log.Fatal(err)
	}
	quantized, err := quantizeModels(loaded, quantize.specs)
	if err != nil {
		log.Fatal(err)
	}

	// One metrics registry for the whole process: every served model,
	// the admission controller and the streaming listener report into it,
	// and GET /metrics scrapes it.
	mx := metrics.NewRegistry()

	reg := serve.NewRegistry(serve.Options{
		Workers:   *workers,
		MaxBatch:  *batch,
		MaxDelay:  *deadline,
		CacheSize: *cache,
		SLO:       *slo,
		Metrics:   mx,
	})

	names, err := registerModels(reg, loaded, quantized, embeds.specs)
	if err != nil {
		log.Fatal(err)
	}
	for _, spec := range weights.specs {
		name, split, err := parseWeights(spec)
		if err != nil {
			log.Fatal(err)
		}
		if err := reg.SetWeights(name, split); err != nil {
			log.Fatal(err)
		}
	}

	// One admission controller guards both protocol front ends, so
	// -max-inflight is a process capacity, not a per-listener one.
	ctrl, err := newAdmission(*maxInflight, *fairShare, quotas.specs, *retryAfter)
	if err != nil {
		log.Fatal(err)
	}
	if ctrl != nil {
		ctrl.RegisterMetrics(mx)
	}

	mux := newMux(reg, time.Now(), ctrl, mx, vector.NewStore())
	if *pprofFlag {
		registerPprof(mux)
		log.Print("pprof enabled on /debug/pprof/")
	}
	hs := &http.Server{Addr: *addr, Handler: mux}
	go func() {
		log.Printf("serving %s on %s (workers/model=%d batch=%d deadline=%v cache=%d)",
			strings.Join(names, ", "), *addr, reg.Models()[0].Stats.Workers, *batch, *deadline, *cache)
		if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}()

	var ss *stream.Server
	if *listenTCP != "" {
		ln, err := net.Listen("tcp", *listenTCP)
		if err != nil {
			log.Fatal(err)
		}
		ss = stream.NewServer(reg, stream.Options{Admission: ctrl, Metrics: mx})
		go func() {
			log.Printf("streaming (RPS2) on %s", ln.Addr())
			if err := ss.Serve(ln); err != nil && !errors.Is(err, stream.ErrServerClosed) {
				log.Fatal(err)
			}
		}()
	}

	ramps, err := startCanaries(reg, mx, canaries.specs, *canaryInterval, *canarySchedule)
	if err != nil {
		log.Fatal(err)
	}

	// Graceful shutdown: stop the canary controllers (their probe traffic
	// and weight actuation must not race the teardown), then drain the
	// streaming connections (GOAWAY handshake completes every pipelined
	// frame), then stop accepting HTTP, and only then close the registry
	// so drained work ran on live models throughout.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Print("shutting down")
	for _, c := range ramps {
		c.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if ss != nil {
		if err := ss.Shutdown(ctx); err != nil {
			log.Printf("stream shutdown: %v", err)
		}
	}
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	reg.Close()
	// Unmap only after the registry has drained: serving replicas read
	// the mapped weights until their last request completes.
	if err := closeWeights(loaded); err != nil {
		log.Printf("unmapping weights: %v", err)
	}
}

// registerModels registers every served build and returns their ids in
// registration order. The -quantize siblings go first: the registry points
// a name's "latest" alias at its newest registration, and the bare name
// must keep routing to the build that was loaded, not to its fixed-point
// sibling.
func registerModels(reg *serve.Registry, loaded []loadedModel, quantized []model.Model, embedSpecs []string) ([]string, error) {
	builds := append([]model.Model(nil), quantized...)
	for _, l := range loaded {
		builds = append(builds, l.Model)
	}
	for _, spec := range embedSpecs {
		m, err := embedModel(loaded, spec)
		if err != nil {
			return nil, err
		}
		builds = append(builds, m)
	}
	var names []string
	for _, m := range builds {
		if err := reg.Register(m); err != nil {
			return nil, err
		}
		names = append(names, serve.ModelID(m))
	}
	return names, nil
}

// embedModel resolves an -embed spec against the loaded models and builds
// the tapped embedding sibling (internal/embed): same network, the
// classifier head cut off at compile time.
func embedModel(loaded []loadedModel, spec string) (model.Model, error) {
	name, version, err := parseEmbedSpec(spec)
	if err != nil {
		return nil, err
	}
	for i := range loaded {
		if loaded[i].Name() == name && loaded[i].Version() == version {
			return embed.NewModel(name, version, loaded[i].net, loaded[i].inShape)
		}
	}
	return nil, fmt.Errorf("-embed %s: no loaded model %s", spec, model.ID(name, version))
}

// parseEmbedSpec parses an "-embed name[@version]" spec into its id parts,
// defaulting the version to v1.
func parseEmbedSpec(spec string) (name, version string, err error) {
	if spec == "" || strings.ContainsAny(spec, "=:") {
		return "", "", fmt.Errorf("-embed %q: want name[@version]", spec)
	}
	name, version, _ = strings.Cut(spec, "@")
	if name == "" {
		return "", "", fmt.Errorf("-embed %s: empty model name", spec)
	}
	if version == "" {
		version = "v1"
	}
	return name, version, nil
}

// startCanaries launches one canary controller per -canary spec
// ("name@base:name@cand"), each ramping its candidate on the shared
// schedule and logging every transition as a structured JSON line.
func startCanaries(reg *serve.Registry, mx *metrics.Registry, specs []string, interval time.Duration, scheduleSpec string) ([]*canary.Controller, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	schedule, err := parseSchedule(scheduleSpec)
	if err != nil {
		return nil, err
	}
	var out []*canary.Controller
	for _, spec := range specs {
		base, cand, ok := strings.Cut(spec, ":")
		if !ok || base == "" || cand == "" {
			return nil, fmt.Errorf("-canary %q: want name@base:name@cand", spec)
		}
		c, err := canary.New(canary.Config{
			Registry:  reg,
			Metrics:   mx,
			Base:      base,
			Candidate: cand,
			Schedule:  schedule,
			Interval:  interval,
			Probes:    canaryProbes(reg, base),
			OnEvent: func(ev canary.Event) {
				b, err := json.Marshal(ev)
				if err != nil {
					log.Printf("canary %s: %+v", ev.Type, ev)
					return
				}
				log.Printf("canary %s", b)
			},
		})
		if err != nil {
			return nil, err
		}
		if err := c.Start(); err != nil {
			return nil, err
		}
		log.Printf("canary %s → %s (interval %v, schedule %v)", base, cand, interval, schedule)
		out = append(out, c)
	}
	return out, nil
}

// parseSchedule parses "-canary-schedule 0.05,0.25,0.5".
func parseSchedule(spec string) ([]float64, error) {
	parts := strings.Split(spec, ",")
	schedule := make([]float64, 0, len(parts))
	for _, p := range parts {
		w, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("-canary-schedule %q: bad weight %q", spec, p)
		}
		schedule = append(schedule, w)
	}
	return schedule, nil
}

// canaryProbes builds a deterministic probe set matching the base model's
// input dimension (the drift check's inputs; seeded so every process
// judges the same canary the same way). An unknown base yields no probes
// and lets canary.New report the real registration error.
func canaryProbes(reg *serve.Registry, baseID string) [][]float64 {
	name, version := model.ParseID(baseID)
	var inDim int
	for _, info := range reg.Models() {
		if info.Name == name && info.Version == version {
			inDim = info.InDim
			break
		}
	}
	if inDim == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(42))
	const nProbes = 32
	probes := make([][]float64, nProbes)
	for i := range probes {
		probes[i] = make([]float64, inDim)
		for j := range probes[i] {
			probes[i][j] = rng.NormFloat64()
		}
	}
	return probes
}

// newAdmission builds the shared admission controller from the capacity
// flags, or returns nil (admit everything) when none are set.
func newAdmission(maxInflight, fairShare int, quotaSpecs []string, retryAfter time.Duration) (*admission.Controller, error) {
	if maxInflight <= 0 && fairShare <= 0 && len(quotaSpecs) == 0 {
		return nil, nil
	}
	cfg := admission.Config{MaxInflight: maxInflight, MaxPerConn: fairShare, RetryAfter: retryAfter}
	if len(quotaSpecs) > 0 {
		cfg.Quota = make(map[string]int, len(quotaSpecs))
		for _, spec := range quotaSpecs {
			name, ns, ok := strings.Cut(spec, "=")
			if !ok || name == "" {
				return nil, fmt.Errorf("-quota %q: want name=N", spec)
			}
			n, err := strconv.Atoi(ns)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("-quota %q: bad limit %q", spec, ns)
			}
			if _, dup := cfg.Quota[name]; dup {
				return nil, fmt.Errorf("-quota %q: model %q given twice", spec, name)
			}
			cfg.Quota[name] = n
		}
	}
	return admission.New(cfg), nil
}

// loadedModel is a registered executor together with the network it was
// compiled from, retained so -quantize and -embed can build siblings, and
// the mapping a -model bundle's weights live in (nil for -demo).
type loadedModel struct {
	model.Model
	net     *nn.Network
	inShape []int
	weights *platform.Mapping
}

// loadModels resolves every model flag into an adapter. It runs at boot,
// where an error ends the process, so a failed call leaves the mappings
// it made to the exit.
func loadModels(modelSpecs, demoSpecs []string) ([]loadedModel, error) {
	var out []loadedModel
	for _, spec := range modelSpecs {
		name, version, dir, err := splitSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("-model %q: %w", spec, err)
		}
		m, err := loadBundleModel(name, version, filepath.Join(dir, "arch.txt"), filepath.Join(dir, "params.bin"))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	for _, spec := range demoSpecs {
		name, version, arch, err := splitSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("-demo %q: %w", spec, err)
		}
		m, err := demoModel(name, version, arch)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if len(out) == 0 {
		return nil, errors.New("need at least one of -model or -demo")
	}
	return out, nil
}

// closeWeights unmaps every loaded bundle's weights; none of the models
// may run afterwards.
func closeWeights(loaded []loadedModel) error {
	var first error
	for _, l := range loaded {
		if l.weights == nil {
			continue
		}
		if err := l.weights.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// splitSpec parses "name[@version]=value". The bare legacy form "value"
// (no '=') names the model after the value, so `-demo arch1` still works.
func splitSpec(spec string) (name, version, value string, err error) {
	id, value, ok := strings.Cut(spec, "=")
	if !ok {
		id, value = spec, spec
	}
	if id == "" || value == "" {
		return "", "", "", errors.New(`want name[@version]=value`)
	}
	name, version = model.ParseID(id)
	if version == "" {
		version = "v1"
	}
	return name, version, value, nil
}

// parseWeights parses "-weights name=v1:0.9,v2:0.1".
func parseWeights(spec string) (string, map[string]float64, error) {
	name, list, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return "", nil, fmt.Errorf("-weights %q: want name=version:weight,...", spec)
	}
	split := make(map[string]float64)
	for _, pair := range strings.Split(list, ",") {
		version, ws, ok := strings.Cut(pair, ":")
		if !ok || version == "" {
			return "", nil, fmt.Errorf("-weights %q: bad pair %q", spec, pair)
		}
		w, err := strconv.ParseFloat(ws, 64)
		if err != nil {
			return "", nil, fmt.Errorf("-weights %q: bad weight %q", spec, ws)
		}
		if _, dup := split[version]; dup {
			// A typo like v1:0.9,v2:0.3,v1:0.1 would otherwise silently
			// reshape the split (map last-wins).
			return "", nil, fmt.Errorf("-weights %q: version %q given twice", spec, version)
		}
		split[version] = w
	}
	return name, split, nil
}

// loadBundleModel loads a trained network through the engine (modules 1+2
// of Fig. 4), its weights bound to the mapped parameter file, and adapts
// it for serving.
func loadBundleModel(name, version, archPath, paramsPath string) (loadedModel, error) {
	af, err := os.Open(archPath)
	if err != nil {
		return loadedModel{}, err
	}
	e, err := engine.ParseArchitecture(af, rand.New(rand.NewSource(0)))
	af.Close()
	if err != nil {
		return loadedModel{}, err
	}
	mp, err := e.MapParameters(paramsPath)
	if err != nil {
		return loadedModel{}, err
	}
	m, err := e.Model(name, version)
	if err != nil {
		_ = mp.Close()
		return loadedModel{}, err
	}
	return loadedModel{Model: m, net: e.Net, inShape: e.InShape, weights: mp}, nil
}

// demoModel builds a randomly-initialised built-in architecture.
func demoModel(name, version, arch string) (loadedModel, error) {
	rng := rand.New(rand.NewSource(1))
	var net *nn.Network
	var inShape []int
	switch strings.ToLower(arch) {
	case "arch1":
		net, inShape = nn.Arch1(rng), []int{256}
	case "arch2":
		net, inShape = nn.Arch2(rng), []int{121}
	case "arch3":
		net, inShape = nn.Arch3(rng), []int{32, 32, 3}
	default:
		return loadedModel{}, fmt.Errorf("unknown demo architecture %q (want arch1, arch2 or arch3)", arch)
	}
	m, err := model.New(name, version, net, program.CompileOptions{InShape: inShape})
	if err != nil {
		return loadedModel{}, err
	}
	return loadedModel{Model: m, net: net, inShape: inShape}, nil
}

// quantizeModels resolves -quantize specs against the loaded models: for
// each "name[@version]=bits" it compiles an Int16Spectral build of the
// matching float model's network under the derived version
// "<version>-q<bits>" (weights and activations at the same precision),
// so cmd/serve can A/B a float and a fixed-point build of one network.
func quantizeModels(loaded []loadedModel, specs []string) ([]model.Model, error) {
	var out []model.Model
	for _, spec := range specs {
		name, version, bitsStr, err := splitSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("-quantize %q: %w", spec, err)
		}
		bits, err := strconv.Atoi(bitsStr)
		if err != nil {
			return nil, fmt.Errorf("-quantize %q: bad bit width %q", spec, bitsStr)
		}
		var src *loadedModel
		for i := range loaded {
			if loaded[i].Name() == name && loaded[i].Version() == version {
				src = &loaded[i]
				break
			}
		}
		if src == nil {
			return nil, fmt.Errorf("-quantize %q: no loaded model %s@%s", spec, name, version)
		}
		qv := fmt.Sprintf("%s-q%d", version, bits)
		m, err := model.New(name, qv, src.net, program.CompileOptions{InShape: src.inShape, Backend: program.Int16Spectral(bits, bits)})
		if err != nil {
			return nil, fmt.Errorf("-quantize %q: %w", spec, err)
		}
		out = append(out, m)
	}
	return out, nil
}
