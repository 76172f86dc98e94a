package engine

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func mustFFTConv(t *testing.T, g tensor.Conv2DGeom, rng *rand.Rand) *nn.FFTConv2D {
	t.Helper()
	l, err := nn.NewFFTConv2D(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// roundTrip exports net's architecture, re-parses it, warms BatchNorm
// running statistics on net, moves the parameters across through the
// parameter file, and requires the re-parsed network's eval outputs to be
// net's, bit for bit: the Fig. 4 pair (arch.txt + params.bin) is a
// network's one serialised form, and the parameter file carries BatchNorm's
// running statistics.
func roundTrip(t *testing.T, net *nn.Network, inShape []int, rng *rand.Rand) {
	t.Helper()
	text, err := ExportArchitecture(net, inShape)
	if err != nil {
		t.Fatal(err)
	}
	e, err := ParseArchitecture(strings.NewReader(text), rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatalf("re-parse failed: %v\narchitecture:\n%s", err, text)
	}
	x := tensor.New(append([]int{4}, inShape...)...).Randn(rng, 1)
	net.Forward(x, true)
	var params bytes.Buffer
	if err := SaveParameters(&params, net); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadParameters(bytes.NewReader(params.Bytes())); err != nil {
		t.Fatalf("parameter transfer failed: %v\narchitecture:\n%s", err, text)
	}
	want := net.Forward(x, false)
	got := e.Net.Forward(x, false)
	if !got.SameShape(want) {
		t.Fatalf("round-tripped output shape %v, want %v", got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("output %d after the round trip: %v, source %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestExportArchitectureRoundTrip(t *testing.T) {
	// A network of every exportable layer kind survives export, re-parse
	// and the parameter file.
	rng := rand.New(rand.NewSource(1))
	net := nn.NewNetwork(
		mustFFTConv(t, tensor.Conv2DGeom{H: 10, W: 10, C: 2, R: 3, P: 4, Stride: 1}, rng),
		nn.NewBatchNorm(4),
		nn.NewReLU(),
		nn.NewMaxPool(2),
		nn.NewCircConv2D(tensor.Conv2DGeom{H: 4, W: 4, C: 4, R: 3, P: 8, Stride: 1, Pad: 1}, 4, rng),
		nn.NewTanh(),
		nn.NewAvgPool(2),
		nn.NewFlatten(),
		nn.NewCircDense(2*2*8, 16, 8, rng),
		nn.NewSigmoid(),
		nn.NewDropout(0.25, rng.Float64),
		nn.NewDense(16, 5, rng),
		nn.NewSoftmax(),
	)
	roundTrip(t, net, []int{10, 10, 2}, rng)
}

func TestSaveLoadNetworkWithNewLayers(t *testing.T) {
	// An FFTConv2D + BatchNorm network, saved after training-mode forwards
	// have moved its running statistics, loads back to the same outputs.
	rng := rand.New(rand.NewSource(2))
	net := nn.NewNetwork(
		mustFFTConv(t, tensor.Conv2DGeom{H: 6, W: 6, C: 1, R: 3, P: 2, Stride: 1}, rng),
		nn.NewBatchNorm(2),
		nn.NewFlatten(),
		nn.NewDense(4*4*2, 3, rng),
	)
	roundTrip(t, net, []int{6, 6, 1}, rng)
}

func TestExportMatchesShippedArchTexts(t *testing.T) {
	// Exporting the built-in trainer networks must re-parse to parameter-
	// compatible engines (the property cmd/train relies on).
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct {
		name    string
		net     *nn.Network
		inShape []int
	}{
		{"arch1", nn.Arch1(rng), []int{256}},
		{"arch2", nn.Arch2(rng), []int{121}},
	} {
		text, err := ExportArchitecture(tc.net, tc.inShape)
		if err != nil {
			t.Fatal(err)
		}
		e, err := ParseArchitecture(strings.NewReader(text), rng)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var params bytes.Buffer
		if err := SaveParameters(&params, tc.net); err != nil {
			t.Fatal(err)
		}
		if err := e.LoadParameters(bytes.NewReader(params.Bytes())); err != nil {
			t.Errorf("%s: exported architecture rejects its own parameters: %v", tc.name, err)
		}
	}
}

func TestExportArchitectureErrors(t *testing.T) {
	net := nn.NewNetwork(nn.NewReLU())
	if _, err := ExportArchitecture(net, []int{4, 4}); err == nil {
		t.Error("expected error for 2-dim input shape")
	}
}

// TestExportRefusesNonDefaultBatchNorm: the batchnorm line has no options
// and re-parses with NewBatchNorm's momentum and epsilon, so exporting a
// layer with other values must fail instead of writing a network that
// computes differently.
func TestExportRefusesNonDefaultBatchNorm(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*nn.BatchNorm)
	}{
		{"epsilon", func(b *nn.BatchNorm) { b.Epsilon = 1e-3 }},
		{"momentum", func(b *nn.BatchNorm) { b.Momentum = 0.99 }},
	} {
		bn := nn.NewBatchNorm(4)
		tc.set(bn)
		net := nn.NewNetwork(nn.NewDense(8, 4, rand.New(rand.NewSource(1))), bn)
		if text, err := ExportArchitecture(net, []int{8}); err == nil {
			t.Errorf("%s: exported a non-default batchnorm as:\n%s", tc.name, text)
		}
	}
	net := nn.NewNetwork(nn.NewDense(8, 4, rand.New(rand.NewSource(1))), nn.NewBatchNorm(4))
	if _, err := ExportArchitecture(net, []int{8}); err != nil {
		t.Errorf("default batchnorm: %v", err)
	}
}
