// Package embed serves the penultimate-layer activation of a compiled
// network as an embedding. The paper's block-circulant compression makes
// that activation cheap to produce — it falls out of the same batched
// spectral forward the classifier runs, minus the head product — so the
// embedding tier is not a second execution engine: an embedding model is
// an ordinary model.Model compiled with program.CompileOptions.
// TapPenultimate, registered in the same registry under a derived name.
//
// The derived-name convention is the whole integration story. For a base
// model "mnist@v1" the embedding build registers as "mnist.embed@v1"
// ('.' is a legal name character — see model.ValidateName). Everything
// above the registry — the batcher, the LRU cache (which namespaces by
// name@version), the RPS2 stream tier, the fleet router's propagated
// /v1/models views — routes embedding traffic with zero changes, because
// to each of those layers an embedding model is just a model whose
// "scores" happen to be a 128-wide activation vector.
//
// The package also names wire format e1 (wire.go), the binary codec of the
// /v1/models/{id}/embed endpoint: two magics and a content type over
// serve's one row codec, returning float32 vectors — the dtype the vector
// tier stores and searches.
package embed

import (
	"strings"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
)

// NameSuffix is appended to a base model name to form its embedding
// sibling's registry name.
const NameSuffix = ".embed"

// ModelName derives the registry name of the embedding sibling of base.
func ModelName(base string) string { return base + NameSuffix }

// BaseName inverts ModelName: it strips the embedding suffix and reports
// whether name was an embedding name at all.
func BaseName(name string) (base string, ok bool) {
	base, ok = strings.CutSuffix(name, NameSuffix)
	return base, ok && base != ""
}

// NewModel compiles net's embedding build — the network with its
// classifier head cut off — as a servable model under the derived name
// ModelName(base) and the given version. The returned model runs the
// same zero-alloc compiled executor as the scoring build; its OutDim is
// the embedding width.
func NewModel(base, version string, net *nn.Network, inShape []int) (model.Model, error) {
	if err := model.ValidateName("name", base); err != nil {
		return nil, err
	}
	return model.New(ModelName(base), version, net, program.CompileOptions{InShape: inShape, TapPenultimate: true})
}
