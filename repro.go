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
//
// The tiers around the registry — RPS2 streaming, admission control,
// metrics, canary rollout, the fleet router and its fault injector — are
// reached through cmd/serve and cmd/router, not through this facade.
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package repro

import (
	"io"
	"math/rand"

	"repro/internal/circulant"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/fft"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/ops"
	"repro/internal/platform"
	"repro/internal/program"
	"repro/internal/serve"
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

// NewModel compiles a trained network with opts and wraps the program as
// a registrable Model. opts picks the build: the zero Backend is the float
// spectral path, BackendInt16 the fixed-point deployment — servable side by
// side with the float build of the same network for registry A/B.
func NewModel(name, version string, net *Network, opts CompileOptions) (Model, error) {
	return model.New(name, version, net, opts)
}

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
