package nn

import (
	"repro/internal/circulant"
	"repro/internal/tensor"
)

// Caller-owned forward-pass scratch. The block-circulant layers' spectral
// products are the inference bottleneck, and a forward pass that is handed
// no workspace borrows their scratch from circulant's pool and allocates
// every activation. A long-lived inference worker does better by owning its
// scratch outright: one Workspace threaded through every layer of every
// forward pass, so the steady state allocates nothing per request.

// Workspace is reusable scratch for a network forward pass. It grows to
// the largest layer it has served and is retained across calls. A
// Workspace must not be shared by concurrent forward passes; give each
// inference worker its own.
//
// It carries the circulant.BatchWorkspace every block-circulant layer's
// product runs in — the rows of a CircDense input, the output pixels of a
// CircConv2D sample: one pass of the spectral engine per layer, at any
// batch size — and the gather buffers of the pixel-batched CircConv2D.
//
// A Workspace is also the inference arena: two ping-pong activation
// buffers, sized at plan time (the first pass through a network) and
// reused forever after, that inference-mode layers write their outputs
// into instead of allocating a fresh tensor per layer per batch. Layers
// draw alternating slots — a layer's input is always the other slot — so
// a warm steady-state forward pass allocates nothing. Arena-backed
// outputs are valid until the second-next arena layer runs; callers that
// keep activations (training, diagnostics) use the plain Forward path,
// which never touches the arena. See DESIGN.md §3 for the plan/workspace
// lifecycle.
type Workspace struct {
	batch *circulant.BatchWorkspace // spectral-pass scratch
	seg   []float64                 // gathered im2col segments for pixel-batched CircConv2D
	prod  []float64                 // batched product output for pixel-batched CircConv2D

	act  [2][]float64     // ping-pong activation arena
	actT [2]tensor.Tensor // reusable tensor headers over the arena
	slot int              // next arena slot to hand out
}

// NewWorkspace returns an empty Workspace ready for reuse.
func NewWorkspace() *Workspace {
	return &Workspace{batch: circulant.NewBatchWorkspace()}
}

// actTensor returns a [d0, d1] tensor backed by the next arena slot,
// allocation-free once the arena has grown to the layer's size.
func (w *Workspace) actTensor(d0, d1 int) *tensor.Tensor {
	s := w.slot
	w.slot = 1 - s
	n := d0 * d1
	w.act[s] = growFloats(w.act[s], n)
	return w.actT[s].Bind(w.act[s][:n], d0, d1)
}

// actTensorLike returns a tensor shaped like x backed by the next arena
// slot.
func (w *Workspace) actTensorLike(x *tensor.Tensor) *tensor.Tensor {
	s := w.slot
	w.slot = 1 - s
	n := x.Len()
	w.act[s] = growFloats(w.act[s], n)
	return w.actT[s].BindShapeOf(w.act[s][:n], x)
}

// growFloats resizes s to length n, retaining capacity across calls.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// WorkspaceForwarder is implemented by layers whose forward pass can run
// against a caller-owned Workspace instead of pooled or per-call scratch.
// Layers without per-call scratch simply don't implement it and are run
// through their plain Forward by Network.ForwardWS.
type WorkspaceForwarder interface {
	// ForwardWS is Forward with all scratch drawn from ws.
	ForwardWS(ws *Workspace, x *tensor.Tensor, train bool) *tensor.Tensor
}

// ForwardWS runs the full stack like Forward, passing the caller-owned
// workspace to every layer that can use one. A nil ws is equivalent to
// Forward.
//
// ForwardWS is the interpreted inference path: one interface dispatch per
// layer, no cross-layer rewriting. Cross-layer fusion (the CircDense→ReLU
// epilogue that used to be special-cased here) now lives in the program
// compiler's fusion pass (internal/program), which serves as this path's
// generalisation; ForwardWS stays as the equivalence oracle compiled
// programs are tested against.
func (n *Network) ForwardWS(ws *Workspace, x *tensor.Tensor, train bool) *tensor.Tensor {
	if ws == nil {
		return n.Forward(x, train)
	}
	// Restart the arena rotation so identical passes hand out identical
	// slots: the final output of repeated calls is then not just equal but
	// the same buffer, and a caller that (incorrectly) retains it across
	// calls still reads self-consistent values.
	ws.slot = 0
	for _, l := range n.Layers {
		if wf, ok := l.(WorkspaceForwarder); ok {
			x = wf.ForwardWS(ws, x, train)
		} else {
			x = l.Forward(x, train)
		}
	}
	return x
}

// Argmax returns the index of the largest value in scores — the predicted
// class of one output row. It panics on an empty slice.
func Argmax(scores []float64) int {
	best, bi := scores[0], 0
	for j := 1; j < len(scores); j++ {
		if scores[j] > best {
			best, bi = scores[j], j
		}
	}
	return bi
}

// argmaxRows returns the index of the maximum of each row of a [B, C]
// tensor.
func argmaxRows(out *tensor.Tensor) []int {
	batch := out.Dim(0)
	preds := make([]int, batch)
	for i := 0; i < batch; i++ {
		preds[i] = Argmax(out.Row(i))
	}
	return preds
}
