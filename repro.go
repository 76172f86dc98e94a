// Package repro is a pure-Go reproduction of "FFT-Based Deep Learning
// Deployment in Embedded Systems" (Lin, Liu, Nazemi, Li, Ding, Wang, Pedram —
// DATE 2018): block-circulant DNN weight matrices whose products are computed
// with the FFT → component-wise multiplication → IFFT procedure, reducing FC
// computation from O(n²) to O(n log n) and weight storage from O(n²) to O(n),
// deployed against a calibrated cost model of the paper's three ARM Android
// platforms.
//
// This file is the high-level facade: it re-exports the pieces of the
// internal packages that make up the public API, so a downstream user
// imports only "repro". The subsystems are:
//
//   - FFT kernel (plans, real transforms, circular convolution)  — Fig. 1/2
//   - block-circulant matrices with spectral training gradients   — §IV
//   - DNN framework with dense and block-circulant FC/CONV layers — §IV
//   - synthetic MNIST/CIFAR-10 datasets with bilinear resizing    — §V-B/C
//   - embedded-platform latency model (Nexus 5, XU3, Honor 6X)    — Table I
//   - the four-module deployment engine of Fig. 4 plus CLI tools
//   - a TrueNorth-style neuromorphic simulator for Fig. 5 context
//   - a multi-model inference serving stack: versioned model registry with
//     A/B routing over batched concurrent servers (internal/model,
//     internal/serve, cmd/serve)
//   - a program compiler (internal/program): trained networks lowered to
//     typed op graphs, pass-driven fusion, and pluggable float /
//     fixed-point execution backends
//   - a fleet tier (internal/router, cmd/router): a fault-tolerant proxy
//     over N serving processes — health-checked circuit breakers,
//     budget-bounded retries, graceful drain — proved by the seeded
//     fault-injection harness of internal/faultinject
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package repro

// Regenerate the local benchmark artifact (BENCH_<date>.json, the same
// schema the CI perf job uploads) with `go generate .` or `make bench`.
//go:generate go run ./tools/benchjson run

import (
	"io"
	"math/rand"

	"repro/internal/canary"
	"repro/internal/circulant"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/fft"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/ops"
	"repro/internal/platform"
	"repro/internal/program"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/serve/admission"
	"repro/internal/serve/stream"
	"repro/internal/tensor"
)

// Re-exported core types.
type (
	// Tensor is a dense row-major float64 array.
	Tensor = tensor.Tensor
	// Conv2DGeom describes one 2-D convolution's geometry.
	Conv2DGeom = tensor.Conv2DGeom
	// Circulant is a single circulant matrix.
	Circulant = circulant.Circulant
	// BlockCirculant is the paper's block-circulant weight matrix.
	BlockCirculant = circulant.BlockCirculant
	// Network is an ordered stack of DNN layers.
	Network = nn.Network
	// Layer is one differentiable network stage.
	Layer = nn.Layer
	// Dataset is a labelled image batch.
	Dataset = dataset.Dataset
	// PlatformSpec describes one Table-I device.
	PlatformSpec = platform.Spec
	// PlatformConfig selects device, runtime and power state.
	PlatformConfig = platform.Config
	// OpCounts accumulates primitive-operation totals.
	OpCounts = ops.Counts
	// Engine is the Fig. 4 deployment pipeline.
	Engine = engine.Engine
	// Loss maps outputs and labels to a scalar loss and its gradient.
	Loss = nn.Loss
	// SoftmaxCrossEntropy is the fused softmax + cross-entropy training loss.
	SoftmaxCrossEntropy = nn.SoftmaxCrossEntropy
	// Optimizer updates parameters from accumulated gradients.
	Optimizer = nn.Optimizer
)

// Runtime environments of the deployment study.
const (
	EnvCPP  = platform.EnvCPP
	EnvJava = platform.EnvJava
)

// FFT returns the discrete Fourier transform of x (any length).
func FFT(x []complex128) []complex128 { return fft.FFT(x) }

// IFFT returns the inverse DFT (with 1/n normalisation) of x.
func IFFT(x []complex128) []complex128 { return fft.IFFT(x) }

// RFFT returns the non-redundant half spectrum of a real sequence.
func RFFT(x []float64) []complex128 { return fft.RFFT(x) }

// CircularConvolve computes IFFT(FFT(w) ∘ FFT(x)) — the paper's Fig. 2
// procedure.
func CircularConvolve(w, x []float64) []float64 { return fft.CircularConvolve(w, x) }

// NewCirculant builds a circulant matrix from its defining vector.
func NewCirculant(w []float64) *Circulant { return circulant.NewCirculant(w) }

// NewBlockCirculant builds an m×n block-circulant matrix with block size b.
func NewBlockCirculant(rows, cols, block int) (*BlockCirculant, error) {
	return circulant.NewBlockCirculant(rows, cols, block)
}

// Layer constructors.
var (
	NewDense      = nn.NewDense
	NewCircDense  = nn.NewCircDense
	NewConv2D     = nn.NewConv2D
	NewCircConv2D = nn.NewCircConv2D
	NewReLU       = nn.NewReLU
	NewSoftmax    = nn.NewSoftmax
	NewMaxPool    = nn.NewMaxPool
	NewFlatten    = nn.NewFlatten
	NewNetwork    = nn.NewNetwork
	NewSGD        = nn.NewSGD
)

// The paper's evaluation architectures (§V-B, §V-C).
var (
	Arch1 = nn.Arch1
	Arch2 = nn.Arch2
	Arch3 = nn.Arch3
)

// Dataset generators and transforms.
var (
	SyntheticMNIST = dataset.SyntheticMNIST
	SyntheticCIFAR = dataset.SyntheticCIFAR
	ResizeDataset  = dataset.Resize
)

// Platforms returns the Table-I device registry.
func Platforms() []PlatformSpec { return platform.Platforms() }

// ParseArchitecture builds an inference engine from a textual architecture
// description (module 1 of Fig. 4).
func ParseArchitecture(r io.Reader, rng *rand.Rand) (*Engine, error) {
	return engine.ParseArchitecture(r, rng)
}

// SaveParameters writes a network's trained parameters in the engine's
// binary format (module 2 of Fig. 4).
func SaveParameters(w io.Writer, net *Network) error { return engine.SaveParameters(w, net) }

// Multi-model inference serving (internal/model + internal/serve): models
// implement the Model executor interface and register with a Registry
// under "name@version" identities. Each registered version gets its own
// batching scheduler, replica pool and namespaced LRU result cache;
// routing supports a "latest" alias, weighted A/B splits and atomic
// hot-swap under live traffic. cmd/serve wraps a Registry in HTTP
// speaking JSON and the binary wire format v1.
type (
	// Model is the executor interface the serving stack programs against.
	Model = model.Model
	// Registry serves any number of versioned models concurrently.
	Registry = serve.Registry
	// RegistryModelInfo is one /v1/models listing entry.
	RegistryModelInfo = serve.ModelInfo
	// ServeOptions parameterises the batching, replica pool and cache of
	// each served model (per-model instances).
	ServeOptions = serve.Options
	// Server is the batched concurrent inference server for one model.
	Server = serve.Server
	// ServeStats is a snapshot of one served model's counters.
	ServeStats = serve.Stats
	// InferResult is one answered inference request.
	InferResult = serve.Result
	// Workspace is caller-owned forward-pass scratch for allocation-free
	// repeated inference (see Network.ForwardWS).
	Workspace = nn.Workspace
)

// Serving errors.
var (
	// ErrServerClosed is returned by Infer after Close.
	ErrServerClosed = serve.ErrClosed
	// ErrModelNotFound is returned when no registered model matches a
	// requested name or name@version.
	ErrModelNotFound = serve.ErrNotFound
	// ErrModelExists is returned by Registry.Register for a duplicate
	// name@version identity.
	ErrModelExists = serve.ErrExists
)

// NewRegistry returns an empty model registry; registered models are each
// served with opts.
func NewRegistry(opts ServeOptions) *Registry { return serve.NewRegistry(opts) }

// ModelFromNetwork adapts a trained network as a registrable Model running
// the batched spectral forward path.
func ModelFromNetwork(name, version string, net *Network, inShape []int) (Model, error) {
	return model.FromNetwork(name, version, net, inShape)
}

// ModelDenseBaseline adapts a network through the plain per-call forward —
// the uncompressed reference arm of a dense-versus-circulant A/B pair.
func ModelDenseBaseline(name, version string, net *Network, inShape []int) (Model, error) {
	return model.DenseBaseline(name, version, net, inShape)
}

// NewModelServer starts a batched inference server for one Model.
func NewModelServer(m Model, opts ServeOptions) (*Server, error) { return serve.NewModel(m, opts) }

// NewWorkspace returns reusable forward-pass scratch for a long-lived
// inference loop.
func NewWorkspace() *Workspace { return nn.NewWorkspace() }

// Compiled inference programs (internal/program): Compile lowers a
// trained network into a typed op graph (spectral products, dense
// matmuls, epilogues, fixed-point boundaries), runs the pass pipeline —
// static shape inference, epilogue fusion, dead-op elimination, arena
// planning — and binds the graph to a backend. The interpreted
// Network.ForwardWS path remains as the equivalence oracle.
type (
	// Program is a compiled inference program (single-goroutine, owns its
	// execution arena; see program.Program).
	Program = program.Program
	// CompileOptions parameterises Compile (input shape, backend, batch
	// hint).
	CompileOptions = program.CompileOptions
	// ProgramBackend is a pluggable kernel set a program binds to.
	ProgramBackend = program.Backend
	// ProgramOpInfo describes one compiled op in a Program listing.
	ProgramOpInfo = program.OpInfo
)

// Compile lowers a trained network into an executable inference program.
func Compile(net *Network, opts CompileOptions) (*Program, error) {
	return program.Compile(net, opts)
}

// Program backends: the float split-complex spectral kernels (default),
// the dense uncompressed reference, and the paper's int16 fixed-point
// deployment arithmetic.
var (
	BackendFloat64Split = program.Float64Split
	BackendDenseRef     = program.DenseRef
	BackendInt16        = program.Int16Spectral
)

// ModelQuantized compiles a network on the Int16Spectral fixed-point
// backend and wraps it as a registrable Model — servable side by side
// with the float build of the same network for registry A/B.
func ModelQuantized(name, version string, net *Network, inShape []int, weightBits, actBits int) (Model, error) {
	return model.Quantized(name, version, net, inShape, weightBits, actBits)
}

// Streaming wire v2 (internal/serve/stream): the RPS2 length-prefixed
// protocol carrying the wire-v1 codec over persistent TCP connections.
// One connection multiplexes many in-flight request frames — each tagged
// with an id and a "name[@version]" route — responses complete out of
// order as the batching scheduler finishes them, and a GOAWAY handshake
// drains pipelined work losslessly during rolling swaps. Admission
// control (internal/serve/admission) is the shared overload story: one
// Controller guards both the HTTP handlers and the stream listener, and
// sheds with a typed OverloadError (HTTP 429 + Retry-After, stream 429
// status frame) instead of queueing past capacity.
type (
	// StreamServer serves RPS2 over net.Listeners backed by a Registry.
	StreamServer = stream.Server
	// StreamClient is one pipelined RPS2 connection; safe for concurrent
	// use by any number of goroutines.
	StreamClient = stream.Client
	// StreamOptions parameterises a StreamServer (window, handlers,
	// admission controller).
	StreamOptions = stream.Options
	// StreamStatusError is a non-overload status frame surfaced as an
	// error; errors.Is maps it back onto the serving sentinels.
	StreamStatusError = stream.StatusError
	// AdmissionController is the shared load-shedding gate.
	AdmissionController = admission.Controller
	// AdmissionConfig parameterises NewAdmission.
	AdmissionConfig = admission.Config
	// OverloadError is the typed shed error carried across both protocols,
	// with the shed reason and a Retry-After hint.
	OverloadError = admission.OverloadError
)

// ErrStreamGoingAway is returned by StreamClient.Do once the server has
// announced a drain; in-flight requests still complete.
var ErrStreamGoingAway = stream.ErrGoingAway

// NewStreamServer builds an RPS2 streaming server over a registry.
func NewStreamServer(reg *Registry, opts StreamOptions) *StreamServer {
	return stream.NewServer(reg, opts)
}

// DialStream connects an RPS2 streaming client to a NewStreamServer
// address.
func DialStream(addr string) (*StreamClient, error) { return stream.Dial(addr) }

// NewAdmission builds an admission controller to share between a
// StreamServer and an HTTP front end.
func NewAdmission(cfg AdmissionConfig) *AdmissionController { return admission.New(cfg) }

// Observability (internal/metrics, internal/canary): a dependency-free
// Prometheus text-exposition registry with atomic counters, gauges, and
// histograms (no per-observation allocation, so the serving hot path
// stays at 0 allocs/op), and a canary controller that ramps a candidate
// version's registry A/B weight through a schedule while watching the
// same latency histograms and probe-based score drift, auto-promoting
// on sustained health and auto-rolling back to the pre-canary weights
// on sustained breach. ServeOptions.Metrics wires a MetricsRegistry into
// every registered model; MetricsRegistry.Handler serves GET /metrics.
type (
	// MetricsRegistry holds registered series and renders the
	// Prometheus 0.0.4 text exposition.
	MetricsRegistry = metrics.Registry
	// MetricsCounter is a monotone atomic counter series.
	MetricsCounter = metrics.Counter
	// MetricsGauge is a settable atomic gauge series.
	MetricsGauge = metrics.Gauge
	// MetricsHistogram is a fixed-bucket atomic histogram series.
	MetricsHistogram = metrics.Histogram
	// CanaryController ramps, evaluates, and promotes or rolls back
	// one base→candidate pair.
	CanaryController = canary.Controller
	// CanaryConfig parameterises NewCanary.
	CanaryConfig = canary.Config
	// CanaryEvent is the structured record emitted on every ramp step,
	// promote, rollback, or stop.
	CanaryEvent = canary.Event
	// CanaryState is the controller's lifecycle state.
	CanaryState = canary.State
)

// NewMetricsRegistry builds an empty metrics registry; pass it via
// ServeOptions.Metrics and mount its Handler at /metrics.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// NewCanary validates a canary configuration against the registry and
// returns a controller; call Start to begin the ramp.
func NewCanary(cfg CanaryConfig) (*CanaryController, error) { return canary.New(cfg) }

// Fleet tier (internal/router, internal/faultinject): a shared-nothing
// proxy fronting N serving processes over persistent RPS2 connections,
// re-exposing the same HTTP and RPS2 front ends. Routing is keyed by
// "name[@version]" against a propagated registry view (periodic
// /v1/models + /metrics scrapes), selection is least-loaded among
// healthy holders, and per-backend fault tolerance is a three-state
// circuit breaker, a token-bucket-bounded single retry on a different
// backend, and an admin-driven graceful drain riding the GOAWAY
// handshake. The fault injector that proves all of this — seeded,
// deterministic connection faults wrapped around real net.Conns — is
// exported too, because chaos harnesses are part of the product's
// contract, not just its tests.
type (
	// FleetRouter fans requests out across backends; it implements the
	// same InferInto seam a Registry does, so the stream server and the
	// HTTP handlers run unchanged on top of it.
	FleetRouter = router.Router
	// FleetOptions parameterises NewFleetRouter (backends, intervals,
	// breaker and retry-budget tuning).
	FleetOptions = router.Options
	// FleetBackend names one fronted process: RPS2 address, HTTP base
	// URL for view/health scraping, and an optional dial hook.
	FleetBackend = router.BackendConfig
	// FleetBreakerConfig tunes every backend's circuit breaker.
	FleetBreakerConfig = router.BreakerConfig
	// FaultInjector wraps net.Conns with a seeded, deterministic fault
	// schedule (drops, delays, truncations, corruption).
	FaultInjector = faultinject.Injector
	// FaultConfig is the injector's fault schedule.
	FaultConfig = faultinject.Config
)

// Fleet routing sentinels: ErrFleetNoBackend (known route, nothing
// healthy holds it — a 503) versus ErrFleetUnknownRoute (no backend has
// ever advertised it — a 404).
var (
	ErrFleetNoBackend    = router.ErrNoBackend
	ErrFleetUnknownRoute = router.ErrUnknownRoute
	// ErrInjectedFault is the typed error a scheduled connection drop
	// surfaces through a wrapped conn.
	ErrInjectedFault = faultinject.ErrInjectedDrop
)

// NewFleetRouter dials every backend and starts the health loops; the
// router is serving as soon as it returns.
func NewFleetRouter(opts FleetOptions) (*FleetRouter, error) { return router.New(opts) }

// NewFaultInjector builds a deterministic connection-fault injector;
// wire its Dialer into a FleetBackend or wrap a test listener with
// Listen.
func NewFaultInjector(cfg FaultConfig) *FaultInjector { return faultinject.New(cfg) }
