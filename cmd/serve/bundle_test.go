package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/embed"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// paramsBytes renders net's parameter file.
func paramsBytes(t *testing.T, net *nn.Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := engine.SaveParameters(&buf, net); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeBundle writes net as a cmd/train bundle (arch.txt + params.bin)
// in a fresh directory and returns it.
func writeBundle(t *testing.T, net *nn.Network, inShape []int) string {
	t.Helper()
	dir := t.TempDir()
	arch, err := engine.ExportArchitecture(net, inShape)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "arch.txt"), []byte(arch), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "params.bin"), paramsBytes(t, net), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// loadMapped runs loadModels over -model specs and unmaps the weights
// when the test ends; register cleanups that close registries after this
// call, so they run first.
func loadMapped(t *testing.T, specs ...string) []loadedModel {
	t.Helper()
	ms, err := loadModels(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := closeWeights(ms); err != nil {
			t.Error(err)
		}
	})
	return ms
}

// sameScores fails unless got and want are the same float64 bits.
func sameScores(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: output shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d is %v, in-memory build says %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestMappedBundleBits: Arch-1 and Arch-2 served through -model's mapped
// path score bit-identically to model.New on the in-memory network, at
// batch 1 and 16, for the float build, the -quantize 12 build and the
// -embed sibling — http_app_mix's flag set.
func TestMappedBundleBits(t *testing.T) {
	type arch struct {
		name, version string
		net           *nn.Network
		inShape       []int
	}
	archs := []arch{
		{name: "mnist", version: "v1", net: nn.Arch1(rand.New(rand.NewSource(61))), inShape: []int{256}},
		{name: "mnist2", version: "v2", net: nn.Arch2(rand.New(rand.NewSource(62))), inShape: []int{121}},
	}
	var specs []string
	for _, a := range archs {
		specs = append(specs, model.ID(a.name, a.version)+"="+writeBundle(t, a.net, a.inShape))
	}
	loaded := loadMapped(t, specs...)
	quantized, err := quantizeModels(loaded, []string{"mnist=12", "mnist2@v2=12"})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(63))
	for i, a := range archs {
		if !loaded[i].weights.Mapped() && runtime.GOOS == "linux" {
			t.Errorf("%s: weights are not a true mmap on linux", loaded[i].Name())
		}
		embedded, err := embedModel(loaded, model.ID(a.name, a.version))
		if err != nil {
			t.Fatal(err)
		}
		builds := []struct {
			what string
			got  model.Model
			ref  func() (model.Model, error)
		}{
			{"float", loaded[i], func() (model.Model, error) {
				return model.New(a.name, a.version, a.net, program.CompileOptions{InShape: a.inShape})
			}},
			{"q12", quantized[i], func() (model.Model, error) {
				return model.New(a.name, a.version+"-q12", a.net, program.CompileOptions{InShape: a.inShape, Backend: program.Int16Spectral(12, 12)})
			}},
			{"embed", embedded, func() (model.Model, error) { return embed.NewModel(a.name, a.version, a.net, a.inShape) }},
		}
		for _, b := range builds {
			ref, err := b.ref()
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{1, 16} {
				x := tensor.New(n, ref.InDim()).Randn(rng, 1)
				want := ref.Forward(x).Clone()
				sameScores(t, model.ID(a.name, a.version)+" "+b.what, b.got.Forward(x), want)
			}
		}
	}
}

// TestQuantizeKeepsLatestOnLoadedBuild: with -model mnist=… -quantize
// mnist=12, registered the way main does, the bare name still routes to
// the loaded float build, bit for bit, and /v1/models marks it latest.
func TestQuantizeKeepsLatestOnLoadedBuild(t *testing.T) {
	net := nn.Arch1(rand.New(rand.NewSource(64)))
	loaded := loadMapped(t, "mnist="+writeBundle(t, net, []int{256}))
	quantized, err := quantizeModels(loaded, []string{"mnist=12"})
	if err != nil {
		t.Fatal(err)
	}
	reg := newTestRegistry(t, 4)
	if _, err := registerModels(reg, loaded, quantized, nil); err != nil {
		t.Fatal(err)
	}
	for _, info := range reg.Models() {
		if info.Latest != (info.Version == "v1") {
			t.Errorf("%s@%s latest=%v, want latest on the loaded build v1", info.Name, info.Version, info.Latest)
		}
	}
	ref, err := model.New("mnist", "v1", net, program.CompileOptions{InShape: []int{256}})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 256).Randn(rand.New(rand.NewSource(65)), 1)
	got := tensor.New(1, ref.OutDim())
	if _, err := reg.InferInto(context.Background(), "mnist", "", x.Data, got.Data); err != nil {
		t.Fatal(err)
	}
	sameScores(t, "unversioned mnist", got, ref.Forward(x))
}

// TestWeightsAliasMapping proves the zero-copy claim for -model: every
// value of the parameter file — each parameter tensor and each BatchNorm
// statistic — lies inside the mapped params.bin, nothing weight-sized was
// copied to the heap, and on linux the mapping is a true mmap.
func TestWeightsAliasMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	net := nn.NewNetwork(nn.NewCircDense(64, 32, 16, rng), nn.NewBatchNorm(32), nn.NewReLU(), nn.NewDense(32, 10, rng))
	l := loadMapped(t, "bn="+writeBundle(t, net, []int{64}))[0]
	if runtime.GOOS == "linux" && !l.weights.Mapped() {
		t.Error("params.bin is not a true mmap on linux")
	}
	data := l.weights.Bytes()
	lo := uintptr(unsafe.Pointer(&data[0]))
	hi := lo + uintptr(len(data))
	inside := func(what string, v []float64) int {
		if addr := uintptr(unsafe.Pointer(&v[0])); addr < lo || addr+8*uintptr(len(v)) > hi {
			t.Errorf("%s does not alias the mapping", what)
		}
		return len(v)
	}
	total := 0
	for i, p := range l.net.Params() {
		total += inside(fmt.Sprintf("parameter %d (%s)", i, p.Name), p.Value.Data)
	}
	mean, variance := l.net.Layers[1].(*nn.BatchNorm).RunningStats()
	total += inside("running mean", *mean) + inside("running variance", *variance)
	if header := len(data) - 8*total; header != 32 {
		t.Errorf("bound %d values of a %d-byte file: %d bytes left for the header, want 32", total, len(data), header)
	}
}

// TestServedWeightsSurviveBundleReplace: replacing a served params.bin the
// way cmd/train writes one — a temp file renamed over it — leaves the live
// model on the file it mapped, answering with its original bits.
func TestServedWeightsSurviveBundleReplace(t *testing.T) {
	dir := writeBundle(t, testNet(1), []int{64})
	m := loadMapped(t, "m="+dir)[0]
	x := tensor.New(4, 64).Randn(rand.New(rand.NewSource(65)), 1)
	want := m.Forward(x).Clone()
	tmp := filepath.Join(dir, "params.bin.tmp")
	if err := os.WriteFile(tmp, paramsBytes(t, testNet(2)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, "params.bin")); err != nil {
		t.Fatal(err)
	}
	sameScores(t, "after replace", m.Forward(x), want)
	// The new file serves the new weights.
	fresh := loadMapped(t, "m="+dir)[0]
	if got := fresh.Forward(x); math.Float64bits(got.Data[0]) == math.Float64bits(want.Data[0]) {
		t.Error("reloading the replaced bundle served the old weights")
	}
}

// hammer runs clients concurrent closed-loop callers, n distinct random
// inputs each, against name@version and waits for them.
func hammer(t *testing.T, reg *serve.Registry, name, version string, inDim, clients, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			input := make([]float64, inDim)
			var scores []float64
			for i := 0; i < n; i++ {
				for j := range input {
					input[j] = rng.NormFloat64()
				}
				res, err := reg.InferInto(context.Background(), name, version, input, scores)
				if err != nil {
					t.Error(err)
					return
				}
				scores = res.Scores[:0]
			}
		}(int64(70 + w))
	}
	wg.Wait()
}

// newTestRegistry returns a registry closed when the test ends — before
// the weights of models loaded earlier through loadMapped are unmapped.
func newTestRegistry(t *testing.T, maxBatch int) *serve.Registry {
	reg := serve.NewRegistry(serve.Options{Workers: 2, MaxBatch: maxBatch, QueueDepth: 64})
	t.Cleanup(reg.Close)
	return reg
}

// TestHotLoadConcurrentQuery is the -race gate for the -model → registry
// path: a bundle maps and registers while queries run against an already
// registered one, whose replicas share the read-only mapped network —
// concurrent Forward on shared mapped weights.
func TestHotLoadConcurrentQuery(t *testing.T) {
	dir1 := writeBundle(t, nn.Arch1(rand.New(rand.NewSource(61))), []int{256})
	dir2 := writeBundle(t, nn.Arch2(rand.New(rand.NewSource(62))), []int{121})
	m := loadMapped(t, "mnist="+dir1)[0]
	var m2 []loadedModel
	reg := newTestRegistry(t, 8)
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	// Hot-load the second model mid-traffic.
	loaded := make(chan struct{})
	go func() {
		defer close(loaded)
		var err error
		if m2, err = loadModels([]string{"mnist2@v2=" + dir2}, nil); err != nil {
			t.Error(err)
			return
		}
		if err := reg.Register(m2[0]); err != nil {
			t.Error(err)
		}
	}()
	hammer(t, reg, "mnist", "v1", 256, 4, 200)
	<-loaded
	if _, err := reg.Infer(context.Background(), "mnist2", "v2", make([]float64, 121)); err != nil {
		t.Fatal(err)
	}
	reg.Close() // idempotent: the cleanup's second Close is a no-op
	if err := closeWeights(m2); err != nil {
		t.Error(err)
	}
}

// TestConvReplicasShareNoLayerState is the -race gate for mapped conv
// bundles (the paper's Table III network in miniature): conv and pooling
// run through their own layer.Forward, which writes receiver fields at
// inference, so two workers serving one loaded model must each own their
// network — only programs made of typed ops may share it.
func TestConvReplicasShareNoLayerState(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	net := nn.NewNetwork(
		nn.NewConv2D(tensor.Conv2DGeom{H: 8, W: 8, C: 1, R: 3, P: 4, Stride: 1}, rng),
		nn.NewReLU(),
		nn.NewMaxPool(2),
		nn.NewFlatten(),
		nn.NewCircDense(36, 16, 4, rng),
		nn.NewReLU(),
		nn.NewDense(16, 10, rng),
	)
	m := loadMapped(t, "cifar="+writeBundle(t, net, []int{8, 8, 1}))[0]
	reg := newTestRegistry(t, 2)
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	hammer(t, reg, "cifar", "v1", 64, 4, 200)
}
