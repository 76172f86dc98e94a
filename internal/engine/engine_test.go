package engine

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/platform"
	"repro/internal/tensor"
)

func mustParse(t *testing.T, text string) *Engine {
	t.Helper()
	e, err := ParseArchitecture(strings.NewReader(text), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestParseArch1MatchesBuiltin(t *testing.T) {
	e := mustParse(t, Arch1Text)
	if got := len(e.InShape); got != 1 || e.InShape[0] != 256 {
		t.Fatalf("input shape %v", e.InShape)
	}
	// circfc + relu + circfc + relu + fc + softmax = 6 layers.
	if got := len(e.Net.Layers); got != 6 {
		t.Fatalf("%d layers, want 6", got)
	}
	ref := nn.Arch1(rand.New(rand.NewSource(2)))
	if e.Net.NumParams() != ref.NumParams() {
		t.Errorf("parsed Arch-1 has %d params, builtin %d", e.Net.NumParams(), ref.NumParams())
	}
}

func TestParseArch2And3(t *testing.T) {
	e2 := mustParse(t, Arch2Text)
	if e2.InShape[0] != 121 {
		t.Errorf("Arch-2 input %v", e2.InShape)
	}
	e3 := mustParse(t, Arch3Text)
	if len(e3.InShape) != 3 || e3.InShape[0] != 32 || e3.InShape[2] != 3 {
		t.Errorf("Arch-3 input %v", e3.InShape)
	}
	ref := nn.Arch3(rand.New(rand.NewSource(3)))
	if e3.Net.NumParams() != ref.NumParams() {
		t.Errorf("parsed Arch-3 has %d params, builtin %d", e3.Net.NumParams(), ref.NumParams())
	}
}

func TestParserErrors(t *testing.T) {
	cases := map[string]string{
		"no input":          "fc 10\n",
		"duplicate input":   "input 4\ninput 4\n",
		"bad dims":          "input 0\n",
		"fc on image":       "input 4 4 1\nfc 10\n",
		"conv on flat":      "input 16\nconv 8 3\n",
		"missing block":     "input 16\ncircfc 8\n",
		"bad block":         "input 16\ncircfc 8 block=x\n",
		"unknown directive": "input 16\nfoo 3\n",
		"bad pool divide":   "input 5 5 1\nmaxpool 2\n",
		"kernel too big":    "input 2 2 1\nconv 4 5\n",
		"bad dropout":       "input 16\ndropout 1.5\n",
		"empty":             "",
		"input only":        "input 16\n",
		"bad act":           "input 16\nfc 10 act=step\n",
	}
	for name, text := range cases {
		if _, err := ParseArchitecture(strings.NewReader(text), rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestParserCommentsAndOptions(t *testing.T) {
	e := mustParse(t, `
# full option coverage
input 8 8 2
conv 4 3 stride=1 pad=1 act=tanh   # same-size conv
avgpool 2
flatten
dropout 0.25
fc 6 act=sigmoid
fc 3
softmax
`)
	x := tensor.New(2, 8, 8, 2).Randn(rand.New(rand.NewSource(4)), 1)
	out := e.Net.Forward(x, false)
	if out.Dim(0) != 2 || out.Dim(1) != 3 {
		t.Errorf("output shape %v", out.Shape())
	}
}

func TestParameterRoundTripThroughEngine(t *testing.T) {
	// Train-side: build Arch-2 with one RNG, save parameters.
	trainRng := rand.New(rand.NewSource(5))
	trained := nn.NewNetwork(
		nn.NewCircDense(121, 64, 32, trainRng),
		nn.NewReLU(),
		nn.NewCircDense(64, 64, 32, trainRng),
		nn.NewReLU(),
		nn.NewDense(64, 10, trainRng),
	)
	var params bytes.Buffer
	if err := SaveParameters(&params, trained); err != nil {
		t.Fatal(err)
	}

	// Device-side: parse the architecture with a different RNG, load params.
	e := mustParse(t, Arch2Text)
	if err := e.LoadParameters(bytes.NewReader(params.Bytes())); err != nil {
		t.Fatal(err)
	}

	x := tensor.New(4, 121).Randn(rand.New(rand.NewSource(6)), 1)
	want := trained.Forward(x, false)
	got := e.Net.Forward(x, false)
	// The engine net ends in softmax; compare argmax decisions instead of
	// raw activations.
	for i := 0; i < 4; i++ {
		wr, gr := want.Row(i), got.Row(i)
		wb, gb := 0, 0
		for j := 1; j < 10; j++ {
			if wr[j] > wr[wb] {
				wb = j
			}
			if gr[j] > gr[gb] {
				gb = j
			}
		}
		if wb != gb {
			t.Fatalf("sample %d: engine predicts %d, trainer net predicts %d", i, gb, wb)
		}
	}
}

func TestLoadParametersValidation(t *testing.T) {
	e := mustParse(t, Arch2Text)
	if err := e.LoadParameters(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("expected error on truncated file")
	}
	if err := e.LoadParameters(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Error("expected error on bad magic")
	}
	var own bytes.Buffer
	if err := SaveParameters(&own, e.Net); err != nil {
		t.Fatal(err)
	}
	// Header fields: a v1 version number and a non-zero reserved word are
	// rejected before the body is read.
	for _, patch := range []struct {
		name string
		off  int
		v    byte
	}{{"version 1", 4, 1}, {"reserved", 28, 1}} {
		data := append([]byte(nil), own.Bytes()...)
		data[patch.off] = patch.v
		if err := e.LoadParameters(bytes.NewReader(data)); err == nil {
			t.Errorf("expected error on %s header", patch.name)
		}
	}
	// Parameter count mismatch: save Arch-1 params, load into Arch-2.
	other := nn.Arch1(rand.New(rand.NewSource(7)))
	var buf bytes.Buffer
	if err := SaveParameters(&buf, other); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadParameters(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("expected error on architecture/parameter shape mismatch")
	}
	// A failed load leaves the network's weights untouched: the file
	// still loads, and re-saves to the same bytes.
	if err := e.LoadParameters(bytes.NewReader(own.Bytes())); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := SaveParameters(&again, e.Net); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), own.Bytes()) {
		t.Error("weights changed across rejected loads")
	}
}

func TestLoadInputsEndToEnd(t *testing.T) {
	// Full Fig. 4 flow: generate data, write IDX files, parse arch, load
	// inputs, predict.
	raw := dataset.SyntheticMNIST(20, 8)
	resized := dataset.Resize(raw, 11, 11)
	var imgs, labels bytes.Buffer
	if err := dataset.WriteIDXImages(&imgs, resized); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteIDXLabels(&labels, resized); err != nil {
		t.Fatal(err)
	}

	e := mustParse(t, Arch2Text)
	d, err := e.LoadInputs(&imgs, &labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 20 {
		t.Fatalf("%d samples loaded", d.Len())
	}
	preds, err := e.PredictBatched(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 20 {
		t.Fatalf("%d predictions", len(preds))
	}
	for _, p := range preds {
		if p < 0 || p > 9 {
			t.Fatalf("prediction %d outside class range", p)
		}
	}
	acc, err := e.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy %g", acc)
	}
}

func TestLoadInputsShapeMismatch(t *testing.T) {
	raw := dataset.SyntheticMNIST(4, 9)
	resized := dataset.Resize(raw, 16, 16) // 256 features
	var imgs, labels bytes.Buffer
	if err := dataset.WriteIDXImages(&imgs, resized); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteIDXLabels(&labels, resized); err != nil {
		t.Fatal(err)
	}
	e := mustParse(t, Arch2Text) // wants 121
	if _, err := e.LoadInputs(&imgs, &labels, 1); err == nil {
		t.Error("expected error on feature-count mismatch")
	}
}

func TestInferenceCostAndDeviceLatency(t *testing.T) {
	e := mustParse(t, Arch1Text)
	c := e.InferenceCost()
	if c.Flops() <= 0 || c.APICalls < 5 {
		t.Fatalf("implausible inference cost %v", c)
	}
	spec := platform.Platforms()[2] // Honor 6X
	cpp := e.DeviceLatencyUS(platform.Config{Spec: spec, Env: platform.EnvCPP})
	java := e.DeviceLatencyUS(platform.Config{Spec: spec, Env: platform.EnvJava})
	if cpp <= 0 || java <= cpp {
		t.Errorf("latency ordering broken: cpp=%.1f java=%.1f", cpp, java)
	}
	// The canonical Arch-1 pipeline on Honor 6X C++ is the paper's 101 µs
	// best-device cell; the model must land within 15%.
	if cpp < 85 || cpp > 117 {
		t.Errorf("Arch-1 Honor 6X C++ latency %.1fµs outside paper band (101µs ±15%%)", cpp)
	}
}
