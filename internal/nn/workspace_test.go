package nn

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// wsTol bounds the disagreement between the workspace (batched spectral)
// path and plain Forward. The batched engine runs half-spectrum transforms
// that round differently from the per-row full-complex path, so the two are
// no longer bit-identical; they must agree within 1e-12 per element
// (observed ~1e-15), and the workspace path must be deterministic.
const wsTol = 1e-12

// TestForwardWSMatchesForward: the workspace path runs the batched spectral
// engine, so it must match Forward within wsTol, reproduce itself exactly
// across workspace reuse, and degrade to plain Forward on a nil workspace.
func TestForwardWSMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(
		NewCircConv2D(tensor.Conv2DGeom{H: 8, W: 8, C: 4, R: 3, P: 8, Stride: 1}, 4, rng),
		NewReLU(),
		NewFlatten(),
		NewCircDense(6*6*8, 32, 16, rng),
		NewReLU(),
		NewDense(32, 10, rng),
	)
	x := tensor.New(3, 8, 8, 4).Randn(rng, 1)
	want := net.Forward(x, false)
	ws := NewWorkspace()
	first := net.ForwardWS(ws, x, false)
	if !first.SameShape(want) {
		t.Fatalf("shape %v, want %v", first.Shape(), want.Shape())
	}
	for i := range want.Data {
		if d := first.Data[i] - want.Data[i]; d > wsTol || d < -wsTol {
			t.Fatalf("element %d: workspace %g, plain %g", i, first.Data[i], want.Data[i])
		}
	}
	for trial := 0; trial < 3; trial++ { // reuse must be exactly reproducible
		got := net.ForwardWS(ws, x, false)
		for i := range want.Data {
			if got.Data[i] != first.Data[i] {
				t.Fatalf("trial %d: element %d: %g != first pass %g", trial, i, got.Data[i], first.Data[i])
			}
		}
	}
	// nil workspace degrades to plain Forward, bit-identically.
	got := net.ForwardWS(nil, x, false)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("nil-ws element %d: %g != %g", i, got.Data[i], want.Data[i])
		}
	}
}

// TestForwardWSZeroAlloc is the planned-forward allocation gate: a warm
// workspace forward pass of a circulant FC architecture (Arch-1: fused
// CircDense→ReLU pairs and a Dense head, all arena-backed) must allocate
// nothing at all, at batch 1 and at serving batch sizes. Layer shapes stay
// below the spectral engine's parallel threshold, so the deterministic
// serial path runs on every host.
func TestForwardWSZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := Arch1(rng)
	ws := NewWorkspace()
	for _, batch := range []int{1, 16} {
		x := tensor.New(batch, 256).Randn(rng, 1)
		net.ForwardWS(ws, x, false) // warm the arena and FFT scratch
		allocs := testing.AllocsPerRun(30, func() { net.ForwardWS(ws, x, false) })
		if allocs > 0 {
			t.Errorf("batch %d: warm ForwardWS allocates %.0f/op; want 0", batch, allocs)
		}
	}
}

// TestFusedReLUMatchesSeparate pins the ForwardWS peephole: a network with
// CircDense→ReLU pairs must produce the same activations (within wsTol)
// whether the pair is fused into the spectral epilogue (ForwardWS,
// inference) or run as two layers (Forward).
func TestFusedReLUMatchesSeparate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := Arch1(rng)
	for _, batch := range []int{1, 3, 16} {
		x := tensor.New(batch, 256).Randn(rng, 1)
		want := net.Forward(x, false)
		got := net.ForwardWS(NewWorkspace(), x, false)
		for i := range want.Data {
			if d := got.Data[i] - want.Data[i]; d > wsTol || d < -wsTol {
				t.Fatalf("batch %d element %d: fused %g, separate %g", batch, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// Once warm, the workspace path must allocate nothing beyond the
// activation tensors themselves: no FFT scratch, no per-product output
// slices, and never more than the pooled path.
func TestForwardWSSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(
		NewCircDense(256, 128, 64, rng),
		NewReLU(),
		NewCircDense(128, 128, 64, rng),
	)
	x := tensor.New(1, 256).Randn(rng, 1)
	ws := NewWorkspace()
	net.ForwardWS(ws, x, false) // warm the workspace
	withWS := testing.AllocsPerRun(50, func() { net.ForwardWS(ws, x, false) })
	without := testing.AllocsPerRun(50, func() { net.Forward(x, false) })
	if withWS > without {
		t.Errorf("workspace path allocates %.0f/op, pooled path %.0f/op; want no more", withWS, without)
	}
	// 3 layers × (output tensor + header overhead) — anything well beyond
	// that means per-product scratch is leaking back in.
	if withWS > 20 {
		t.Errorf("workspace path allocates %.0f/op; want only activation tensors (≤20)", withWS)
	}
}
