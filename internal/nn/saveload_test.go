package nn_test

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// saveLoad writes net in its one serialised form, the Fig. 4 pair of
// architecture text and parameter file, and reads it back into a network
// built by the architecture parser from a different seed.
func saveLoad(t *testing.T, net *nn.Network, inShape []int) *nn.Network {
	t.Helper()
	text, err := engine.ExportArchitecture(net, inShape)
	if err != nil {
		t.Fatal(err)
	}
	var params bytes.Buffer
	if err := engine.SaveParameters(&params, net); err != nil {
		t.Fatal(err)
	}
	e, err := engine.ParseArchitecture(strings.NewReader(text), rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadParameters(&params); err != nil {
		t.Fatal(err)
	}
	return e.Net
}

func TestSaveLoadRoundTripPreservesPredictions(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := nn.Arch2(rng)
	x := tensor.New(5, 121).Randn(rng, 1)
	want := net.Forward(x, false)

	got := saveLoad(t, net, []int{121}).Forward(x, false)
	if !got.SameShape(want) {
		t.Fatalf("loaded network's output shape %v, want %v", got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("loaded network's output %d is %v, source %v", i, got.Data[i], want.Data[i])
		}
	}
}

func TestSaveLoadArch3Structure(t *testing.T) {
	net := nn.Arch3(rand.New(rand.NewSource(13)))
	loaded := saveLoad(t, net, []int{32, 32, 3})
	if len(loaded.Layers) != len(net.Layers) {
		t.Fatalf("layer count %d, want %d", len(loaded.Layers), len(net.Layers))
	}
	if loaded.NumParams() != net.NumParams() {
		t.Errorf("param count %d, want %d", loaded.NumParams(), net.NumParams())
	}
}
