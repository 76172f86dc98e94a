package model_test

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/tensor"
)

func testNet(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewNetwork(
		nn.NewCircDense(64, 32, 16, rng),
		nn.NewReLU(),
		nn.NewDense(32, 10, rng),
	)
}

// convNet is an Arch-3-shaped network in miniature: conv → pool → flatten
// → block-circulant FC → dense head. Conv and pool have no typed lowering,
// so its program carries KindLayer fallbacks.
func convNet(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewNetwork(
		nn.NewConv2D(tensor.Conv2DGeom{H: 8, W: 8, C: 1, R: 3, P: 4, Stride: 1}, rng),
		nn.NewReLU(),
		nn.NewMaxPool(2),
		nn.NewFlatten(),
		nn.NewCircDense(36, 16, 4, rng),
		nn.NewReLU(),
		nn.NewDense(16, 10, rng),
	)
}

func denseNet(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewNetwork(nn.NewDense(64, 32, rng), nn.NewReLU(), nn.NewDense(32, 10, rng))
}

// TestNew drives the one constructor over every build the serving stack
// registers. For each: identity and shape surface, agreement with the
// interpreted network, replica equality (≤1e-12 float, bit-equal int16),
// and the derived Replicate rule — programs of typed ops share the
// network, programs with a KindLayer fallback deep-copy it.
func TestNew(t *testing.T) {
	cases := []struct {
		name     string
		net      *nn.Network
		opts     program.CompileOptions
		outDim   int
		refTol   float64 // |model − net.Forward|; 0 skips (tapped output has no interpreted twin)
		bitEqual bool    // replica must match the original exactly
		shared   bool    // replicas run the original's network
	}{
		{name: "float", net: testNet(3), opts: program.CompileOptions{InShape: []int{64}},
			outDim: 10, refTol: 1e-9, shared: true},
		{name: "int16", net: testNet(8), opts: program.CompileOptions{InShape: []int{64}, Backend: program.Int16Spectral(12, 12)},
			outDim: 10, refTol: 0.05, bitEqual: true, shared: true},
		{name: "tap", net: testNet(5), opts: program.CompileOptions{InShape: []int{64}, TapPenultimate: true},
			outDim: 32, shared: true},
		{name: "denseRef", net: testNet(3), opts: program.CompileOptions{InShape: []int{64}, Backend: program.DenseRef()},
			outDim: 10, refTol: 1e-9, shared: true},
		{name: "denseNet", net: denseNet(6), opts: program.CompileOptions{InShape: []int{64}},
			outDim: 10, refTol: 1e-9, shared: true},
		{name: "conv", net: convNet(7), opts: program.CompileOptions{InShape: []int{8, 8, 1}},
			outDim: 10, refTol: 1e-9, shared: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := model.New("mnist", "v1", tc.net, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if m.Name() != "mnist" || m.Version() != "v1" {
				t.Errorf("identity %s@%s, want mnist@v1", m.Name(), m.Version())
			}
			if m.InDim() != 64 || m.OutDim() != tc.outDim {
				t.Errorf("dims in=%d out=%d, want 64/%d", m.InDim(), m.OutDim(), tc.outDim)
			}
			if got := m.InShape(); !reflect.DeepEqual(got, tc.opts.InShape) {
				t.Errorf("InShape %v, want %v", got, tc.opts.InShape)
			}

			const batch = 5
			x := tensor.New(append([]int{batch}, tc.opts.InShape...)...).Randn(rand.New(rand.NewSource(4)), 1)
			out := m.Forward(x)
			if out.Dim(0) != batch || out.Dim(1) != tc.outDim {
				t.Fatalf("output shape %v, want [%d %d]", out.Shape(), batch, tc.outDim)
			}
			want := append([]float64(nil), out.Data...)
			if tc.refTol > 0 {
				ref := tc.net.Forward(x, false)
				for i, v := range want {
					if math.Abs(v-ref.Data[i]) > tc.refTol {
						t.Fatalf("output[%d] = %g, interpreted network %g", i, v, ref.Data[i])
					}
				}
			}

			for r := 0; r < 2; r++ {
				rep, err := m.Replicate()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Name() != m.Name() || rep.Version() != m.Version() ||
					rep.InDim() != m.InDim() || rep.OutDim() != tc.outDim {
					t.Errorf("replica %d identity or shape differs from original", r)
				}
				if got := model.NetworkOf(rep) == tc.net; got != tc.shared {
					t.Errorf("replica %d shares the network: %v, want %v", r, got, tc.shared)
				}
				got := rep.Forward(x).Data
				for i, v := range want {
					if tc.bitEqual && got[i] != v || math.Abs(got[i]-v) > 1e-12 {
						t.Fatalf("replica %d output[%d] = %g, original %g", r, i, got[i], v)
					}
				}
			}
		})
	}
}

// TestNewRejectsAtConstruction: everything that would otherwise panic in a
// serving worker is an error from New.
func TestNewRejectsAtConstruction(t *testing.T) {
	in := func(shape ...int) program.CompileOptions { return program.CompileOptions{InShape: shape} }
	for _, tc := range []struct {
		name string
		net  *nn.Network
		opts program.CompileOptions
	}{
		{"mismatched input length", testNet(1), in(63)},
		{"nil network", nil, in(64)},
		{"missing input shape", testNet(1), in()},
		{"conv rejects a flat input", convNet(1), in(64)},
		{"99-bit weights", testNet(1), program.CompileOptions{InShape: []int{64}, Backend: program.Int16Spectral(99, 12)}},
		{"tap with one product", nn.NewNetwork(nn.NewDense(64, 10, rand.New(rand.NewSource(1)))),
			program.CompileOptions{InShape: []int{64}, TapPenultimate: true}},
	} {
		if _, err := model.New("mnist", "v1", tc.net, tc.opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestFallbackReplicaIsIndependent: a replica of a program with fallback
// layers owns a deep copy, so it shares no parameters with the original —
// perturbing the original's network must not move the replica's outputs.
func TestFallbackReplicaIsIndependent(t *testing.T) {
	net := convNet(5)
	m, err := model.New("m", "v1", net, program.CompileOptions{InShape: []int{8, 8, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.Replicate()
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 8, 8, 1).Randn(rand.New(rand.NewSource(6)), 1)
	before := append([]float64(nil), rep.Forward(x).Data...)

	for _, p := range net.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] += 1
		}
		if p.OnUpdate != nil {
			p.OnUpdate()
		}
	}
	after := rep.Forward(x).Data
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("replica output moved with original's parameters: %g → %g", before[i], after[i])
		}
	}
}

func TestNameValidation(t *testing.T) {
	net := testNet(2)
	for _, bad := range []struct{ name, version string }{
		{"", "v1"}, {"m", ""}, {"a@b", "v1"}, {"m", "v@1"},
		{"a/b", "v1"}, {"a b", "v1"},
		// URL metacharacters would register fine yet be unreachable over
		// /v1/models/{id}.
		{"a?b", "v1"}, {"a#b", "v1"}, {"a%b", "v1"},
	} {
		if _, err := model.New(bad.name, bad.version, net, program.CompileOptions{InShape: []int{64}}); err == nil {
			t.Errorf("accepted invalid identity %q@%q", bad.name, bad.version)
		}
	}
}

func TestIDRoundTrip(t *testing.T) {
	if got := model.ID("mnist", "v2"); got != "mnist@v2" {
		t.Errorf("ID = %q", got)
	}
	name, version := model.ParseID("mnist@v2")
	if name != "mnist" || version != "v2" {
		t.Errorf("ParseID = %q, %q", name, version)
	}
	name, version = model.ParseID("mnist")
	if name != "mnist" || version != "" {
		t.Errorf("ParseID bare = %q, %q", name, version)
	}
}

// TestEngineModelAdapter round-trips a network through the engine's
// parameter format and adapts the loaded engine, checking the served
// numbers match the original network.
func TestEngineModelAdapter(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	arch := "input 64\ncircfc 32 block=16 act=relu\nfc 10\n"
	e, err := engine.ParseArchitecture(bytes.NewReader([]byte(arch)), rng)
	if err != nil {
		t.Fatal(err)
	}
	var params bytes.Buffer
	if err := engine.SaveParameters(&params, e.Net); err != nil {
		t.Fatal(err)
	}
	e2, err := engine.ParseArchitecture(bytes.NewReader([]byte(arch)), rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if err := e2.LoadParameters(bytes.NewReader(params.Bytes())); err != nil {
		t.Fatal(err)
	}
	m, err := e2.Model("bundle", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if m.InDim() != 64 || m.OutDim() != 10 {
		t.Fatalf("engine model dims in=%d out=%d, want 64/10", m.InDim(), m.OutDim())
	}
	x := tensor.New(2, 64).Randn(rand.New(rand.NewSource(9)), 1)
	ref := e.Net.Forward(x, false)
	got := m.Forward(x)
	for i := range ref.Data[:2*10] {
		diff := got.Data[i] - ref.Data[i]
		if diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("engine-adapted output[%d] = %g, want %g", i, got.Data[i], ref.Data[i])
		}
	}
}
