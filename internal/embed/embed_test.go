package embed

import (
	"bytes"
	"context"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

func TestNaming(t *testing.T) {
	if got := ModelName("mnist"); got != "mnist.embed" {
		t.Fatalf("ModelName = %q", got)
	}
	if base, ok := BaseName("mnist.embed"); !ok || base != "mnist" {
		t.Fatalf("BaseName = %q, %v", base, ok)
	}
	if _, ok := BaseName("mnist"); ok {
		t.Error("BaseName accepted a non-embed name")
	}
	if _, ok := BaseName(".embed"); ok {
		t.Error("BaseName accepted an empty base")
	}
}

// TestNewModelMatchesTrunk: the embedding model must produce the
// interpreted trunk activation (all layers but the classifier head) and
// advertise the embedding width as OutDim.
func TestNewModelMatchesTrunk(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	net := nn.Arch1(rng)
	m, err := NewModel("mnist", "v1", net, []int{256})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "mnist.embed" || m.Version() != "v1" {
		t.Fatalf("registered as %s@%s", m.Name(), m.Version())
	}
	if m.OutDim() != 128 {
		t.Fatalf("OutDim = %d, want 128", m.OutDim())
	}
	trunk := nn.NewNetwork(net.Layers[:len(net.Layers)-1]...)
	x := tensor.New(4, 256).Randn(rng, 1)
	want := trunk.Forward(x, false)
	got := m.Forward(x)
	if !got.SameShape(want) {
		t.Fatalf("shape %v, want %v", got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-12 {
			t.Fatalf("element %d deviates by %g", i, d)
		}
	}
	// Replicas must be independent executors producing the same vectors.
	rep, err := m.Replicate()
	if err != nil {
		t.Fatal(err)
	}
	got2 := rep.Forward(x)
	for i := range want.Data {
		if got2.Data[i] != got.Data[i] {
			t.Fatalf("replica deviates at element %d", i)
		}
	}
	if _, err := NewModel("bad@name", "v1", net, []int{256}); err == nil {
		t.Error("NewModel accepted an invalid base name")
	}
}

// TestWireGoldenBytes pins e1 wire compatibility with pre-unification
// clients: frames produced by the original RQE1/RSE1 encoders, hard-coded
// here, must decode (through this package's magics and serve's row codec)
// to the values they were built from and re-encode to the same bytes.
func TestWireGoldenBytes(t *testing.T) {
	const (
		rqe1 = "525145310200000002000000" + // "RQE1", count 2, dim 2
			"000000000000f03f" + "00000000000004c0" + // 1, -2.5
			"9a9999999999b93f" + "000000b08ef01b42" // 0.1, 3e10
		rse1 = "525345310200000002000000" + // "RSE1", count 2, dim 2
			"0000803f" + "000020c0" + "cdcccc3d" + "7684df50" // the same values as float32
	)
	want := [][]float64{{1, -2.5}, {0.1, 3e10}}

	req, err := hex.DecodeString(rqe1)
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := ParseWireRequest(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hex.DecodeString(rse1)
	if err != nil {
		t.Fatal(err)
	}
	vecs, err := ParseWireResults(resp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != 2 || len(vecs) != 2 {
		t.Fatalf("decoded %d inputs and %d vectors, want 2 and 2", len(inputs), len(vecs))
	}
	for i := range want {
		for j := range want[i] {
			if inputs[i][j] != want[i][j] {
				t.Errorf("RQE1 [%d][%d] = %g, want %g", i, j, inputs[i][j], want[i][j])
			}
			if vecs[i][j] != float32(want[i][j]) {
				t.Errorf("RSE1 [%d][%d] = %g, want %g", i, j, vecs[i][j], float32(want[i][j]))
			}
		}
	}
	if reenc, err := AppendWireRequest(nil, inputs); err != nil || !bytes.Equal(reenc, req) {
		t.Errorf("RQE1 re-encoded to %x (err %v), want %x", reenc, err, req)
	}
	if reenc, err := AppendWireResults(nil, want); err != nil || !bytes.Equal(reenc, resp) {
		t.Errorf("RSE1 re-encoded to %x (err %v), want %x", reenc, err, resp)
	}
	// The two directions are distinct formats.
	if _, err := ParseWireRequest(resp, nil); err == nil {
		t.Error("RSE1 frame accepted as a request")
	}
	if _, err := ParseWireResults(req, nil); err == nil {
		t.Error("RQE1 frame accepted as a response")
	}
}

// TestEmbedRoutedZeroAlloc extends the serving-path allocation gate to the
// embedding workload: the penultimate-activation model registered under
// "<name>.embed" rides the same InferInto path, so a warm registry-routed
// embed must also allocate nothing (the PR 10 acceptance criterion;
// BenchmarkEmbed pins the same property in the ALLOC_GATE tier).
func TestEmbedRoutedZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; the alloc gate runs without -race")
	}
	rng := rand.New(rand.NewSource(73))
	net := nn.Arch1(rng)
	em, err := NewModel("arch1", "v1", net, []int{256})
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Options{Workers: 1, MaxBatch: 16})
	defer reg.Close()
	if err := reg.Register(em); err != nil {
		t.Fatal(err)
	}
	route := ModelName("arch1")
	input := make([]float64, 256)
	for i := range input {
		input[i] = rng.NormFloat64()
	}
	ctx := context.Background()
	var vec []float64
	for k := 0; k < 40; k++ {
		res, err := reg.InferInto(ctx, route, "", input, vec)
		if err != nil {
			t.Fatal(err)
		}
		vec = res.Scores
	}

	allocs := testing.AllocsPerRun(50, func() {
		res, err := reg.InferInto(ctx, route, "", input, vec)
		if err != nil {
			t.Fatal(err)
		}
		vec = res.Scores
	})
	if allocs > 0 {
		t.Errorf("steady-state registry-routed embed allocates %.0f/op; want 0", allocs)
	}
}
