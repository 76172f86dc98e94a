package store

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/serve"
	"repro/internal/tensor"
)

func packArch1(t *testing.T) (string, *nn.Network) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	net := nn.Arch1(rng)
	dir := t.TempDir()
	err := Pack(dir, []PackModel{
		{Name: "mnist", Version: "v1", Net: net, InShape: []int{256}},
		{Name: "mnist2", Version: "v2", Net: nn.Arch2(rand.New(rand.NewSource(62))), InShape: []int{121}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir, net
}

// TestPackOpenLoad: a packed store must load models whose outputs are
// bit-identical to compiling the original network directly — same
// weights, same backend, same executor.
func TestPackOpenLoad(t *testing.T) {
	dir, net := packArch1(t)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(s.Entries()); got != 2 {
		t.Fatalf("index holds %d entries, want 2", got)
	}
	m, err := s.Load("mnist", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if m.InDim() != 256 || m.OutDim() != 10 {
		t.Fatalf("loaded model is %d→%d", m.InDim(), m.OutDim())
	}
	ref, err := model.New("mnist", "v1", net, program.CompileOptions{InShape: []int{256}})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 256).Randn(rand.New(rand.NewSource(63)), 1)
	want := ref.Forward(x)
	got := m.Forward(x)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("stored model deviates at element %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
	// Load is idempotent: same model handle, no mapping stacking.
	m2, err := s.Load("mnist", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if m2 != m {
		t.Error("second Load returned a different handle")
	}
	if n, _ := s.Mapped(); n != 1 {
		t.Errorf("%d mappings after double load, want 1", n)
	}
	if _, err := s.Load("missing", "v1"); err == nil {
		t.Error("loading a missing entry must fail")
	}
}

// TestWeightsAliasMapping proves the zero-copy claim: after bindParams,
// every parameter's storage lies inside the mapped blob — nothing
// weight-sized was copied to the heap — and on Unix the mapping is a true
// syscall.Mmap view.
func TestWeightsAliasMapping(t *testing.T) {
	dir, _ := packArch1(t)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Load("mnist", "v1"); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	mp := s.maps[0]
	s.mu.Unlock()
	if runtime.GOOS == "linux" && !mp.Mapped() {
		t.Error("blob is not a true mmap on linux")
	}
	// Rebuild the same binding and check every param points into the view.
	e, _ := s.Find("mnist", "v1")
	data := mp.Bytes()
	view, err := float64View(data)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(&view[0]))
	hi := lo + uintptr(len(view))*8
	net := nn.Arch1(rand.New(rand.NewSource(1)))
	if err := bindParams(net, view); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, p := range net.Params() {
		if p.Value.Len() == 0 {
			continue
		}
		addr := uintptr(unsafe.Pointer(&p.Value.Data[0]))
		if addr < lo || addr >= hi {
			t.Errorf("parameter %d (%s) does not alias the mapping", i, p.Name)
		}
		total += p.Value.Len()
	}
	if total != e.Params {
		t.Errorf("bound %d values, index says %d", total, e.Params)
	}
}

// TestCorruptBlob: a flipped byte in a blob must be caught by the
// checksum at load time, and a truncated blob by the size check.
func TestCorruptBlob(t *testing.T) {
	dir, _ := packArch1(t)
	blob := filepath.Join(dir, "mnist@v1.w64")
	data, err := os.ReadFile(blob)
	if err != nil {
		t.Fatal(err)
	}
	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x01
	if err := os.WriteFile(blob, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Load("mnist", "v1"); err == nil {
		t.Fatal("corrupt blob loaded")
	}
	if err := os.WriteFile(blob, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("mnist", "v1"); err == nil {
		t.Fatal("truncated blob loaded")
	}
	// The second model's blob is untouched and must still load.
	if _, err := s.Load("mnist2", "v2"); err != nil {
		t.Fatal(err)
	}
}

// TestIndexRoundTrip pins the codec: encode → parse → re-encode must be
// byte-identical, and corrupt indexes must be rejected whole.
func TestIndexRoundTrip(t *testing.T) {
	dir, _ := packArch1(t)
	data, err := os.ReadFile(filepath.Join(dir, IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := ParseIndex(data)
	if err != nil {
		t.Fatal(err)
	}
	reenc, err := AppendIndex(nil, entries)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, data) {
		t.Fatal("index round trip changed bytes")
	}
	for _, n := range []int{3, 11, len(data) - 2} {
		if _, err := ParseIndex(data[:n]); err == nil {
			t.Errorf("truncation at %d accepted", n)
		}
	}
	if _, err := ParseIndex(append(append([]byte(nil), data...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := ParseIndex(bad); err == nil {
		t.Error("bad magic accepted")
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

// TestHotLoadConcurrentQuery is the -race gate for the store → registry
// path: models hot-load through the PR 3 registry while queries run
// against already-registered ones — replicas share the read-only mapped
// network, so this also exercises concurrent Forward on shared weights.
func TestHotLoadConcurrentQuery(t *testing.T) {
	dir, _ := packArch1(t)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reg := serve.NewRegistry(serve.Options{Workers: 2, MaxBatch: 8, QueueDepth: 64})
	defer reg.Close()
	m, err := s.Load("mnist", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	// Hot-load the second model mid-traffic.
	loaded := make(chan struct{})
	go func() {
		defer close(loaded)
		m2, err := s.Load("mnist2", "v2")
		if err != nil {
			t.Error(err)
			return
		}
		if err := reg.Register(m2); err != nil {
			t.Error(err)
		}
	}()
	hammer(t, reg, "mnist", "v1", 256, 4, 200)
	<-loaded
	if _, err := reg.Infer(context.Background(), "mnist2", "v2", make([]float64, 121)); err != nil {
		t.Fatal(err)
	}
}

// TestConvReplicasShareNoLayerState is the -race gate for stored conv
// artifacts (the paper's Table III network in miniature): conv and pooling
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
	dir := t.TempDir()
	if err := Pack(dir, []PackModel{{Name: "cifar", Version: "v1", Net: net, InShape: []int{8, 8, 1}}}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, err := s.Load("cifar", "v1")
	if err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry(serve.Options{Workers: 2, MaxBatch: 2, QueueDepth: 64})
	defer reg.Close()
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	hammer(t, reg, "cifar", "v1", 64, 4, 200)
}
