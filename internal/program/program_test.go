package program

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// eqTol bounds compiled-versus-interpreted disagreement: 1e-12 per element,
// the bound documented since the two executed different spectral kernels.
// Both now run the one engine at every batch size; the bound is kept, not
// tightened, so the oracle relation does not depend on the two epilogue
// and dense-head code paths rounding alike.
const eqTol = 1e-12

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestCompiledMatchesInterpreted is the equivalence gate of the
// acceptance criteria: compiled Float64Split programs must agree with the
// interpreted oracle (Network.ForwardWS) within 1e-12 on the paper's FC
// evaluation architectures at batch sizes 1, 16 and 64. Arch-3 (the CONV
// network) has its own test below with a reduced geometry — its full
// forward pass is too heavy for the race-enabled CI matrix at batch 64.
func TestCompiledMatchesInterpreted(t *testing.T) {
	archs := []struct {
		name    string
		build   func(*rand.Rand) *nn.Network
		inShape []int
	}{
		{"arch1", nn.Arch1, []int{256}},
		{"arch2", nn.Arch2, []int{121}},
	}
	for _, a := range archs {
		rng := rand.New(rand.NewSource(11))
		net := a.build(rng)
		prog, err := Compile(net, CompileOptions{InShape: a.inShape})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		ws := nn.NewWorkspace()
		for _, batch := range []int{1, 16, 64} {
			x := tensor.New(append([]int{batch}, a.inShape...)...).Randn(rng, 1)
			want := net.ForwardWS(ws, x, false)
			got := prog.Run(x)
			if !got.SameShape(want) {
				t.Fatalf("%s batch %d: shape %v, want %v", a.name, batch, got.Shape(), want.Shape())
			}
			if d := maxAbsDiff(got.Data, want.Data); d > eqTol {
				t.Errorf("%s batch %d: compiled deviates from interpreted by %g", a.name, batch, d)
			}
		}
	}
}

// arch3Mini is an Arch-3-shaped network (CONV → ReLU → pool → circulant
// CONV → ReLU → flatten → circulant FC stack → dense head) at a reduced
// geometry, exercising the same op kinds — KindLayer fallbacks, Pack, the
// typed FC tail — the full CIFAR network compiles to.
func arch3Mini(rng *rand.Rand) (*nn.Network, []int) {
	net := nn.NewNetwork(
		nn.NewConv2D(tensor.Conv2DGeom{H: 12, W: 12, C: 3, R: 3, P: 8, Stride: 1}, rng),
		nn.NewReLU(),
		nn.NewMaxPool(2),
		nn.NewCircConv2D(tensor.Conv2DGeom{H: 5, W: 5, C: 8, R: 2, P: 16, Stride: 1}, 8, rng),
		nn.NewReLU(),
		nn.NewFlatten(),
		nn.NewCircDense(4*4*16, 64, 32, rng),
		nn.NewReLU(),
		nn.NewDense(64, 10, rng),
	)
	return net, []int{12, 12, 3}
}

// TestCompiledMatchesInterpretedConv covers the convolutional lowering:
// fallback layers, the Pack view at the CONV→FC transition, and the
// typed tail must reproduce the interpreter on a rank-4 input at batches
// 1, 16 and 64.
func TestCompiledMatchesInterpretedConv(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net, inShape := arch3Mini(rng)
	prog, err := Compile(net, CompileOptions{InShape: inShape})
	if err != nil {
		t.Fatal(err)
	}
	ws := nn.NewWorkspace()
	for _, batch := range []int{1, 16, 64} {
		x := tensor.New(append([]int{batch}, inShape...)...).Randn(rng, 1)
		want := net.ForwardWS(ws, x, false)
		got := prog.Run(x)
		if !got.SameShape(want) {
			t.Fatalf("batch %d: shape %v, want %v", batch, got.Shape(), want.Shape())
		}
		if d := maxAbsDiff(got.Data, want.Data); d > eqTol {
			t.Errorf("batch %d: compiled deviates from interpreted by %g", batch, d)
		}
	}
}

// TestArch3Compiles pins the full CIFAR network's compilation and a
// one-sample equivalence check (the batch sweep lives in the mini
// version above — a full Arch-3 batch-64 forward is minutes under -race).
func TestArch3Compiles(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := nn.Arch3(rng)
	prog, err := Compile(net, CompileOptions{InShape: []int{32, 32, 3}})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 32, 32, 3).Randn(rng, 1)
	want := net.ForwardWS(nn.NewWorkspace(), x, false)
	got := prog.Run(x)
	if d := maxAbsDiff(got.Data, want.Data); d > eqTol {
		t.Errorf("compiled Arch-3 deviates from interpreted by %g", d)
	}
}

// TestFusionSubsumesPeephole pins the pass pipeline's output on Arch-1:
// lowering emits product/bias/relu separately, the fusion pass folds the
// whole y = ψ(Wᵀx + θ) epilogue into each product op, and dead-op
// elimination leaves exactly three kernels.
func TestFusionSubsumesPeephole(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	prog, err := Compile(nn.Arch1(rng), CompileOptions{InShape: []int{256}})
	if err != nil {
		t.Fatal(err)
	}
	ops := prog.Ops()
	want := []string{
		"BlockCircMul(256×128,b=64)+bias+relu",
		"BlockCircMul(128×128,b=64)+bias+relu",
		"MatMul(128×10)+bias",
	}
	if len(ops) != len(want) {
		t.Fatalf("compiled to %d ops, want %d:\n%s", len(ops), len(want), prog.String())
	}
	for i, w := range want {
		if got := ops[i].String(); got != w {
			t.Errorf("op %d = %q, want %q", i, got, w)
		}
	}
}

// TestInt16LoweringInsertsBoundaries: the fixed-point backend must wrap
// every product in Quantize/Dequantize nodes, move the fused epilogue to
// the Dequantize, and leave non-product ops in float.
func TestInt16LoweringInsertsBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	prog, err := Compile(nn.Arch1(rng), CompileOptions{
		InShape: []int{256},
		Backend: Int16Spectral(12, 12),
	})
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, o := range prog.Ops() {
		kinds = append(kinds, o.Kind.String())
		if o.Kind == KindBlockCircMul || o.Kind == KindMatMul {
			if !o.Quantized {
				t.Errorf("product op %s not quantized under Int16Spectral", o)
			}
			if o.FusedBias || o.FusedReLU {
				t.Errorf("product op %s kept the epilogue; it belongs to Dequantize", o)
			}
		}
	}
	want := "Quantize BlockCircMul Dequantize Quantize BlockCircMul Dequantize Quantize MatMul Dequantize"
	if got := strings.Join(kinds, " "); got != want {
		t.Errorf("op kinds:\n  got  %s\n  want %s", got, want)
	}
}

// TestCompileErrors: shape mismatches and bad options are compile-time
// errors, not worker panics.
func TestCompileErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	net := nn.Arch1(rng)
	if _, err := Compile(net, CompileOptions{InShape: []int{100}}); err == nil {
		t.Error("mismatched input shape compiled")
	}
	if _, err := Compile(net, CompileOptions{}); err == nil {
		t.Error("missing InShape compiled")
	}
	if _, err := Compile(nil, CompileOptions{InShape: []int{256}}); err == nil {
		t.Error("nil network compiled")
	}
	if _, err := Compile(nn.NewNetwork(), CompileOptions{InShape: []int{4}}); err == nil {
		t.Error("empty network compiled")
	}
	if _, err := Compile(net, CompileOptions{InShape: []int{256}, Backend: Int16Spectral(12, 1)}); err == nil {
		t.Error("1-bit activations compiled")
	}
	if _, err := Compile(net, CompileOptions{InShape: []int{256}, Backend: Int16Spectral(99, 12)}); err == nil {
		t.Error("99-bit weights compiled")
	}
	// A conv layer fed a flat input must error with the layer named.
	conv, _ := arch3Mini(rng)
	if _, err := Compile(conv, CompileOptions{InShape: []int{432}}); err == nil {
		t.Errorf("conv network with flattened input shape compiled; want probe error")
	}
}

// TestDenseRefMatches: the dense reference backend expands every
// structured product and must agree with the interpreter to float64
// rounding of an O(n) dot-product reordering (the FFT path and the dense
// path sum in different orders, so the bound is looser than eqTol).
func TestDenseRefMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := nn.Arch2(rng)
	prog, err := Compile(net, CompileOptions{InShape: []int{121}, Backend: DenseRef()})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range prog.Ops() {
		if o.Kind == KindCircMul || o.Kind == KindBlockCircMul {
			t.Fatalf("DenseRef program kept structured op %s", o)
		}
	}
	x := tensor.New(8, 121).Randn(rng, 1)
	want := net.Forward(x, false)
	got := prog.Run(x)
	if d := maxAbsDiff(got.Data, want.Data); d > 1e-9 {
		t.Errorf("dense-ref deviates from interpreted by %g", d)
	}
}

// TestInt16MatchesFixedPointDense anchors the batched integer kernel to
// the existing per-sample reference: a single Dense layer compiled with
// Int16Spectral must reproduce quant.FixedPointDense exactly on a batch
// of one (same quantisation rules, same accumulation order).
func TestInt16MatchesFixedPointDense(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	d := nn.NewDense(32, 16, rng)
	net := nn.NewNetwork(d)
	fp, err := quant.NewFixedPointDense(d, 12, 12)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(net, CompileOptions{InShape: []int{32}, Backend: Int16Spectral(12, 12)})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 32).Randn(rng, 1)
	want, err := fp.Forward(x.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	got := prog.Run(x)
	for j := range want {
		if math.Abs(got.Data[j]-want[j]) > 1e-12 {
			t.Errorf("output %d: compiled %g, FixedPointDense %g", j, got.Data[j], want[j])
		}
	}
}

// TestInt16CircMatchesFloat: the integer block-circulant kernel must
// track the float path within the quantisation error budget — the
// worst-case bound is loose, so assert a practical tolerance at 12 bits
// on a two-layer circulant network.
func TestInt16CircMatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	net := nn.Arch2(rng)
	prog, err := Compile(net, CompileOptions{InShape: []int{121}, Backend: Int16Spectral(12, 12)})
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 16} {
		x := tensor.New(batch, 121).Randn(rng, 1)
		want := net.Forward(x, false)
		got := prog.Run(x)
		if d := maxAbsDiff(got.Data, want.Data); d > 0.05 {
			t.Errorf("batch %d: q12 path deviates from float by %g", batch, d)
		}
	}
}

// TestRunRepeatabilityAndViews: repeated warm runs return identical
// values in the same arena buffer, and a flat [B, inDim] view of a
// rank-4 input is accepted.
func TestRunRepeatabilityAndViews(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	net, inShape := arch3Mini(rng)
	prog, err := Compile(net, CompileOptions{InShape: inShape})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(append([]int{3}, inShape...)...).Randn(rng, 1)
	first := append([]float64(nil), prog.Run(x).Data...)
	again := prog.Run(x)
	for i := range first {
		if again.Data[i] != first[i] {
			t.Fatalf("element %d: %g != first pass %g", i, again.Data[i], first[i])
		}
	}
	flat := tensor.FromSlice(x.Data, 3, flatLen(inShape))
	viewed := prog.Run(flat)
	for i := range first {
		if viewed.Data[i] != first[i] {
			t.Fatalf("flat-view element %d: %g != %g", i, viewed.Data[i], first[i])
		}
	}
}

// TestRunBatchInvariantBits pins the float path's serving-determinism
// contract, the one TestInt16BatchIndependence pins for fixed point: a
// sample's scores are the same bits whether it runs alone or inside a batch
// of 2, 7, 16 or 64 — every product is the one spectral engine, whose
// columns are independent — so what the scheduler coalesced around a
// request cannot change its answer, and the result cache may replay
// whichever was computed first. Batch 64 crosses the engine's
// parallelThreshold on both architectures, so running at GOMAXPROCS 1 and
// ≥ 2 also pins independence from the worker count.
func TestRunBatchInvariantBits(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, a := range []struct {
		name  string
		build func(*rand.Rand) *nn.Network
		dim   int
	}{
		{"arch1", nn.Arch1, 256},
		{"arch2", nn.Arch2, 121},
	} {
		rng := rand.New(rand.NewSource(23))
		prog, err := Compile(a.build(rng), CompileOptions{InShape: []int{a.dim}})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		x := tensor.New(64, a.dim).Randn(rng, 1)
		runtime.GOMAXPROCS(1)
		alone := make([][]float64, 64)
		for v := range alone {
			alone[v] = append([]float64(nil), prog.Run(tensor.FromSlice(x.Row(v), 1, a.dim)).Data...)
		}
		for _, procs := range []int{1, max(prev, 2)} {
			runtime.GOMAXPROCS(procs)
			for _, batch := range []int{2, 7, 16, 64} {
				// The batch is the tail of x, so a sample's column moves
				// with the batch size too.
				first := 64 - batch
				out := prog.Run(tensor.FromSlice(x.Data[first*a.dim:], batch, a.dim))
				for v := 0; v < batch; v++ {
					for j, got := range out.Row(v) {
						if want := alone[first+v][j]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s GOMAXPROCS %d batch %d sample %d score %d: in batch %v, alone %v — scores depend on co-batched traffic",
								a.name, procs, batch, v, j, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCompiledForwardZeroAlloc is the compiled path's allocation gate,
// wired into `make alloc-gate` and the CI zero-alloc step by its name: a
// warm compiled forward of Arch-1 — and of its 12-bit fixed-point
// build — must allocate nothing at batch 1 and at serving batch sizes.
func TestCompiledForwardZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := nn.Arch1(rng)
	for _, tc := range []struct {
		name    string
		backend Backend
	}{
		{"float64split", Float64Split()},
		{"int16spectral", Int16Spectral(12, 12)},
	} {
		prog, err := Compile(net, CompileOptions{InShape: []int{256}, Backend: tc.backend})
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 16} {
			x := tensor.New(batch, 256).Randn(rng, 1)
			prog.Run(x) // warm the arena and FFT scratch
			allocs := testing.AllocsPerRun(30, func() { prog.Run(x) })
			if allocs > 0 {
				t.Errorf("%s batch %d: warm compiled Run allocates %.0f/op; want 0", tc.name, batch, allocs)
			}
		}
	}
}

// TestBatchHintPresizes: with a BatchHint the very first Run at that
// batch must already be allocation-free.
func TestBatchHintPresizes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	net := nn.Arch1(rng)
	prog, err := Compile(net, CompileOptions{InShape: []int{256}, BatchHint: 16})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(16, 256).Randn(rng, 1)
	allocs := testing.AllocsPerRun(1, func() { prog.Run(x) })
	if allocs > 0 {
		t.Errorf("first hinted Run allocates %.0f/op; want 0", allocs)
	}
}

// TestTapPenultimate: a program compiled with TapPenultimate must return
// the activation feeding the classifier head — the interpreted forward of
// every layer but the final product — and must stay allocation-free when
// warm, since it is the embedding serving hot path.
func TestTapPenultimate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	net := nn.Arch1(rng)
	prog, err := Compile(net, CompileOptions{InShape: []int{256}, TapPenultimate: true})
	if err != nil {
		t.Fatal(err)
	}
	if prog.OutDim() != 128 {
		t.Fatalf("tapped OutDim = %d, want 128 (second circulant layer width)", prog.OutDim())
	}
	// Oracle: the interpreted forward over the trunk — every layer except
	// the Dense head the tap cuts before.
	trunk := nn.NewNetwork(net.Layers[:len(net.Layers)-1]...)
	ws := nn.NewWorkspace()
	for _, batch := range []int{1, 16} {
		x := tensor.New(batch, 256).Randn(rng, 1)
		want := trunk.ForwardWS(ws, x, false)
		got := prog.Run(x)
		if !got.SameShape(want) {
			t.Fatalf("batch %d: shape %v, want %v", batch, got.Shape(), want.Shape())
		}
		if d := maxAbsDiff(got.Data, want.Data); d > eqTol {
			t.Errorf("batch %d: tapped program deviates from trunk oracle by %g", batch, d)
		}
		allocs := testing.AllocsPerRun(30, func() { prog.Run(x) })
		if allocs > 0 {
			t.Errorf("batch %d: warm tapped Run allocates %.0f/op; want 0", batch, allocs)
		}
	}
}

// TestTapPenultimateErrors: tapping needs a head product to cut before
// and at least one op left after the cut.
func TestTapPenultimateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	head := nn.NewNetwork(nn.NewDense(8, 4, rng))
	if _, err := Compile(head, CompileOptions{InShape: []int{8}, TapPenultimate: true}); err == nil {
		t.Error("tapping a single-product network must fail")
	}
	relu := nn.NewNetwork(nn.NewReLU())
	if _, err := Compile(relu, CompileOptions{InShape: []int{8}, TapPenultimate: true}); err == nil {
		t.Error("tapping a productless network must fail")
	}
}
