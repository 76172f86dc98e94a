// Package model defines the executor interface the serving stack programs
// against. The paper deploys block-circulant networks per platform *and*
// per model size (FC-MNIST and CONV-CIFAR variants on three devices), so a
// server cannot be hard-wired to one *nn.Network: everything above this
// package — the batcher, the replica pool, the registry, the HTTP facade —
// addresses a Model by name and version and calls Forward on whole batches,
// never a concrete network type.
//
// There is one road from a trained network to a servable Model: New
// compiles it with the program.CompileOptions the compiler already defines.
// The options choose the build — Float64Split (the default) for the fused
// spectral kernels, Int16Spectral for the paper's fixed-point deployment,
// DenseRef for the uncompressed reference arm of an A/B pair,
// TapPenultimate for the embedding build (internal/embed) — and travel
// with the model, so every replica is the same build.
package model

import (
	"fmt"
	"strings"

	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/tensor"
)

// Model is one servable inference executor. Implementations must be safe
// to call from a single goroutine at a time; the serving layer obtains one
// Replicate per worker, so Forward itself never runs concurrently on the
// same instance.
type Model interface {
	// Name identifies the model, e.g. "mnist". Names never contain '@'
	// (the name@version separator) or '/' (the URL path separator).
	Name() string
	// Version identifies one registered build of the model, e.g. "v1".
	// Same character restrictions as Name.
	Version() string
	// InShape is the per-sample input shape, e.g. [256] or [32 32 3].
	// Callers must not mutate the returned slice.
	InShape() []int
	// InDim is the flattened per-sample input length (product of InShape).
	InDim() int
	// OutDim is the number of per-sample outputs (classes).
	OutDim() int
	// Forward runs inference on a [B, InShape...] batch and returns a
	// [B, OutDim] tensor. The returned tensor may alias internal scratch
	// or the input; callers copy what they keep.
	Forward(batch *tensor.Tensor) *tensor.Tensor
	// Replicate returns a copy sharing no mutable state with the receiver
	// — the unit of parallel serving.
	Replicate() (Model, error)
}

// ID renders the canonical "name@version" identifier the registry, the
// cache namespace and the wire format all key on.
func ID(name, version string) string { return name + "@" + version }

// ParseID splits "name@version" back into its parts; a bare "name" returns
// an empty version (meaning: route to latest).
func ParseID(id string) (name, version string) {
	if i := strings.IndexByte(id, '@'); i >= 0 {
		return id[:i], id[i+1:]
	}
	return id, ""
}

// ValidateName rejects names or versions that cannot travel through the
// name@version identifier and the /v1/models/{id} URL space: '@' (the
// identifier separator), '/' (the path separator), '?', '#' and '%'
// (query, fragment and escape syntax — a name containing them would
// register fine yet be unreachable over HTTP), and whitespace.
func ValidateName(kind, s string) error {
	if s == "" {
		return fmt.Errorf("model: empty %s", kind)
	}
	if strings.ContainsAny(s, "@/?#% \t\n") {
		return fmt.Errorf("model: %s %q contains '@', '/', '?', '#', '%%' or whitespace", kind, s)
	}
	return nil
}

// netModel is a network compiled into an inference program. opts is what
// New was given, kept so Replicate compiles the same build again.
type netModel struct {
	name    string
	version string
	net     *nn.Network
	opts    program.CompileOptions
	prog    *program.Program
}

// New compiles a trained network into an inference program
// (program.Compile with opts) and wraps it as a Model. Shape problems — a
// rejected opts.InShape, mismatched layer dimensions, an out-of-range
// fixed-point precision — are errors here rather than panics in a serving
// worker. The caller keeps ownership of net and must not write its
// parameters while the model or any replica is serving: float programs
// read them in place (see Replicate).
func New(name, version string, net *nn.Network, opts program.CompileOptions) (Model, error) {
	if err := ValidateName("name", name); err != nil {
		return nil, err
	}
	if err := ValidateName("version", version); err != nil {
		return nil, err
	}
	opts.InShape = append([]int(nil), opts.InShape...)
	prog, err := program.Compile(net, opts)
	if err != nil {
		return nil, fmt.Errorf("model: %s: %w", ID(name, version), err)
	}
	return &netModel{name: name, version: version, net: net, opts: opts, prog: prog}, nil
}

func (m *netModel) Name() string    { return m.name }
func (m *netModel) Version() string { return m.version }
func (m *netModel) InShape() []int  { return m.prog.InShape() }
func (m *netModel) InDim() int      { return m.prog.InDim() }
func (m *netModel) OutDim() int     { return m.prog.OutDim() }

func (m *netModel) Forward(batch *tensor.Tensor) *tensor.Tensor { return m.prog.Run(batch) }

// Replicate compiles a fresh program — the per-worker mutable state: arena,
// integer scratch, FFT workspace — from the same options. Typed ops only
// read the network's parameters and spectra, so a program made of them
// shares the receiver's network: replicas hold no extra copy of the
// weights, and parameters mapped by engine.MapParameters stay file-resident.
// A KindLayer fallback runs an opaque layer.Forward, which writes receiver
// fields (cached shapes, pooling argmax) even at inference, so a program
// containing one gets its own network instead: Network.Clone rebuilds each
// layer from its configuration and copies the parameters and BatchNorm
// statistics into it.
func (m *netModel) Replicate() (Model, error) {
	net := m.net
	if hasFallback(m.prog) {
		var err error
		if net, err = m.net.Clone(); err != nil {
			return nil, fmt.Errorf("model: replicating %s: %w", ID(m.name, m.version), err)
		}
	}
	return New(m.name, m.version, net, m.opts)
}

func hasFallback(p *program.Program) bool {
	for _, op := range p.Ops() {
		if op.Kind == program.KindLayer {
			return true
		}
	}
	return false
}
