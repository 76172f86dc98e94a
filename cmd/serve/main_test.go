package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/program"
	"repro/internal/serve"
	"repro/internal/serve/admission"
	"repro/internal/serve/httpapi"
)

func testNet(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewNetwork(
		nn.NewCircDense(64, 32, 16, rng),
		nn.NewReLU(),
		nn.NewDense(32, 10, rng),
	)
}

// newTestServer starts a registry with one model ("test@v1") behind the
// real HTTP mux.
func newTestServer(t *testing.T, cacheSize int) (*serve.Registry, *httptest.Server) {
	t.Helper()
	reg := serve.NewRegistry(serve.Options{
		Workers:   2,
		MaxBatch:  4,
		MaxDelay:  100 * time.Microsecond,
		CacheSize: cacheSize,
	})
	m, err := model.New("test", "v1", testNet(1), program.CompileOptions{InShape: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(newMux(reg, time.Now(), nil, metrics.NewRegistry(), nil))
	t.Cleanup(func() { hs.Close(); reg.Close() })
	return reg, hs
}

func postInfer(t *testing.T, url string, input []float64) serve.Result {
	t.Helper()
	body, err := json.Marshal(map[string]any{"input": input})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s status %d", url, resp.StatusCode)
	}
	var res serve.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

func getStats(url string) (serve.Stats, error) {
	var st serve.Stats
	resp, err := http.Get(url)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("%s status %d", url, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// TestStatsEndpointConsistentUnderInferLoad is the HTTP-level regression
// test for the /stats race: hit /stats continuously while concurrent
// /infer traffic exercises the LRU cache, and require every response to be
// internally consistent (the cache figures are snapshotted under one
// cache-lock acquisition). CI runs this under -race, which also proves the
// handlers share no unsynchronised state.
func TestStatsEndpointConsistentUnderInferLoad(t *testing.T) {
	const clients, iters, distinct = 4, 60, 5
	_, hs := newTestServer(t, distinct)

	rng := rand.New(rand.NewSource(7))
	inputs := make([][]float64, distinct)
	for i := range inputs {
		inputs[i] = make([]float64, 64)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}

	done := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			st, err := getStats(hs.URL + "/v1/models/test/stats")
			if err != nil {
				t.Error(err)
				return
			}
			if st.Completed > st.Requests {
				t.Errorf("/stats: completed %d > requests %d", st.Completed, st.Requests)
			}
			if st.CacheHits+st.CacheMisses > st.Requests {
				t.Errorf("/stats: hits %d + misses %d > requests %d", st.CacheHits, st.CacheMisses, st.Requests)
			}
			if st.CacheEntries > distinct {
				t.Errorf("/stats: %d entries, capacity %d", st.CacheEntries, distinct)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				postInfer(t, hs.URL+"/v1/models/test/infer", inputs[(c+i)%distinct])
			}
		}(c)
	}
	wg.Wait()
	close(done)
	readerWG.Wait()

	st, err := getStats(hs.URL + "/v1/models/test/stats")
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != clients*iters {
		t.Errorf("requests %d, want %d", st.Requests, clients*iters)
	}
	if st.CacheHits+st.CacheMisses != st.Requests {
		t.Errorf("hits %d + misses %d != requests %d", st.CacheHits, st.CacheMisses, st.Requests)
	}
}

// TestInferEndpointRoundTrip pins the single- and multi-input /infer
// contract end to end through the v1 model-addressed route: correct
// classes, cache flag on repeats, input validation errors.
func TestInferEndpointRoundTrip(t *testing.T) {
	reg, hs := newTestServer(t, 8)
	inferURL := hs.URL + "/v1/models/test/infer"

	input := make([]float64, 64)
	for i := range input {
		input[i] = float64(i) / 64
	}
	first := postInfer(t, inferURL, input)
	if first.Cached {
		t.Error("first request reported Cached")
	}
	if len(first.Scores) != 10 {
		t.Fatalf("got %d scores, want 10", len(first.Scores))
	}
	again := postInfer(t, inferURL, input)
	if !again.Cached {
		t.Error("repeat request not served from cache")
	}
	if again.Class != first.Class {
		t.Errorf("cached class %d, first class %d", again.Class, first.Class)
	}
	// The pinned-version route answers identically.
	pinned := postInfer(t, hs.URL+"/v1/models/test@v1/infer", input)
	if pinned.Class != first.Class {
		t.Errorf("pinned-version class %d, routed class %d", pinned.Class, first.Class)
	}

	// Multi-input body.
	body, _ := json.Marshal(map[string]any{"inputs": [][]float64{input, input}})
	resp, err := http.Post(inferURL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var multi struct {
		Results []serve.Result `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&multi); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(multi.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(multi.Results))
	}

	// Wrong feature count is a structured 400, and is not counted as a
	// request.
	st, err := reg.Stats("test", "")
	if err != nil {
		t.Fatal(err)
	}
	before := st.Requests
	requireErrorStatus(t, inferURL, "application/json", []byte(`{"input":[1,2,3]}`), http.StatusBadRequest)
	st, err = reg.Stats("test", "")
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != before {
		t.Errorf("rejected input counted as a request: %d → %d", before, st.Requests)
	}
}

// requireErrorStatus posts a body and requires the given status plus a
// structured {"error": ...} JSON payload — the regression test for the
// empty-body 500s malformed payloads used to produce.
func requireErrorStatus(t *testing.T, url, contentType string, body []byte, status int) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		t.Errorf("%s: status %d, want %d", url, resp.StatusCode, status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &payload); err != nil {
		t.Fatalf("error response is not JSON: %q", raw)
	}
	if payload.Error == "" {
		t.Errorf("error response has empty \"error\" field: %q", raw)
	}
}

// TestMalformedPayloadsAreStructured400s drives every malformed-payload
// class through the handler: broken JSON, empty body, both input fields,
// oversized multi-input lists, wrong dimensions, and a corrupt wire-format
// request. Each must be a 400 with a JSON {"error": ...} body.
func TestMalformedPayloadsAreStructured400s(t *testing.T) {
	_, hs := newTestServer(t, 0)
	url := hs.URL + "/v1/models/test/infer"

	requireErrorStatus(t, url, "application/json", []byte(`{"input":[1,`), http.StatusBadRequest)
	requireErrorStatus(t, url, "application/json", []byte(``), http.StatusBadRequest)
	requireErrorStatus(t, url, "application/json", []byte(`{}`), http.StatusBadRequest)
	requireErrorStatus(t, url, "application/json", []byte(`{"input":[1],"inputs":[[1]]}`), http.StatusBadRequest)
	requireErrorStatus(t, url, "application/json", []byte(`{"input":[1,2,3]}`), http.StatusBadRequest)

	big, _ := json.Marshal(map[string]any{"inputs": make([][]float64, httpapi.MaxInputs+1)})
	requireErrorStatus(t, url, "application/json", big, http.StatusBadRequest)

	// Wire format: bad magic, then a truncated body.
	requireErrorStatus(t, url, serve.WireContentType, []byte("XXXXXXXXXXXX"), http.StatusBadRequest)
	wire, err := serve.AppendWireRequest(nil, [][]float64{make([]float64, 64)})
	if err != nil {
		t.Fatal(err)
	}
	requireErrorStatus(t, url, serve.WireContentType, wire[:len(wire)-8], http.StatusBadRequest)
	// Wire request with the wrong feature count reaches the model and is
	// rejected there, still as a structured 400.
	wire, err = serve.AppendWireRequest(nil, [][]float64{make([]float64, 63)})
	if err != nil {
		t.Fatal(err)
	}
	requireErrorStatus(t, url, serve.WireContentType, wire, http.StatusBadRequest)
}

// TestUnknownModelIs404 checks both infer and stats routes for unknown
// names and versions.
func TestUnknownModelIs404(t *testing.T) {
	_, hs := newTestServer(t, 0)
	requireErrorStatus(t, hs.URL+"/v1/models/absent/infer", "application/json", []byte(`{"input":[1]}`), http.StatusNotFound)
	requireErrorStatus(t, hs.URL+"/v1/models/test@v9/infer", "application/json", []byte(`{"input":[1]}`), http.StatusNotFound)
	resp, err := http.Get(hs.URL + "/v1/models/absent/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/models/absent/stats: status %d, want 404", resp.StatusCode)
	}
}

// TestMultiModelEndpoints registers a second model with a different input
// shape and checks that the two are individually addressable, listed
// together, and never bleed into each other's caches.
func TestMultiModelEndpoints(t *testing.T) {
	reg, hs := newTestServer(t, 8)
	rng := rand.New(rand.NewSource(2))
	wide := nn.NewNetwork(nn.NewCircDense(128, 32, 16, rng), nn.NewReLU(), nn.NewDense(32, 4, rng))
	m, err := model.New("wide", "v1", wide, program.CompileOptions{InShape: []int{128}})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}

	res := postInfer(t, hs.URL+"/v1/models/wide/infer", make([]float64, 128))
	if len(res.Scores) != 4 {
		t.Errorf("wide model returned %d scores, want 4", len(res.Scores))
	}
	res = postInfer(t, hs.URL+"/v1/models/test/infer", make([]float64, 64))
	if len(res.Scores) != 10 {
		t.Errorf("test model returned %d scores, want 10", len(res.Scores))
	}
	// A 128-vector addressed to the 64-feature model is a structured 400.
	body, _ := json.Marshal(map[string]any{"input": make([]float64, 128)})
	requireErrorStatus(t, hs.URL+"/v1/models/test/infer", "application/json", body, http.StatusBadRequest)

	// Listing shows both, sorted by name, with shapes and latest flags.
	resp, err := http.Get(hs.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Models []serve.ModelInfo `json:"models"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Models) != 2 {
		t.Fatalf("listing has %d models, want 2", len(listing.Models))
	}
	if listing.Models[0].Name != "test" || listing.Models[1].Name != "wide" {
		t.Errorf("listing order %s, %s; want test, wide", listing.Models[0].Name, listing.Models[1].Name)
	}
	for _, info := range listing.Models {
		if !info.Latest {
			t.Errorf("%s@%s not marked latest", info.Name, info.Version)
		}
	}
	if listing.Models[1].InDim != 128 || listing.Models[1].OutDim != 4 {
		t.Errorf("wide dims %d/%d, want 128/4", listing.Models[1].InDim, listing.Models[1].OutDim)
	}
}

// TestWireFormatOverHTTP round-trips a batch through the binary codec end
// to end and checks it agrees with the JSON route on the same inputs.
func TestWireFormatOverHTTP(t *testing.T) {
	_, hs := newTestServer(t, 0)
	url := hs.URL + "/v1/models/test/infer"

	rng := rand.New(rand.NewSource(3))
	inputs := make([][]float64, 3)
	for i := range inputs {
		inputs[i] = make([]float64, 64)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}
	wire, err := serve.AppendWireRequest(nil, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// Clients commonly append media-type parameters; the wire decoder
	// must still be selected.
	resp, err := http.Post(url, serve.WireContentType+"; charset=binary", bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wire post status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != serve.WireContentType {
		t.Errorf("wire response Content-Type %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	results, err := serve.ParseWireResults(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(inputs) {
		t.Fatalf("wire answered %d of %d inputs", len(results), len(inputs))
	}
	for i, in := range inputs {
		ref := postInfer(t, url, in)
		if results[i].Class != ref.Class {
			t.Errorf("input %d: wire class %d, JSON class %d", i, results[i].Class, ref.Class)
		}
		// The wire batch may coalesce into one spectral pass while the JSON
		// singles run alone: a score is the same bits either way (DESIGN.md
		// §3), RPO1 carries the float64 and JSON prints it round-trippably.
		for j := range ref.Scores {
			if math.Float64bits(results[i].Scores[j]) != math.Float64bits(ref.Scores[j]) {
				t.Fatalf("input %d score %d: wire %v, JSON %v", i, j, results[i].Scores[j], ref.Scores[j])
			}
		}
	}
}

// TestFlagParsing pins the -model/-demo/-weights spec grammar.
func TestFlagParsing(t *testing.T) {
	name, version, value, err := splitSpec("mnist@v2=bundles/mnist")
	if err != nil || name != "mnist" || version != "v2" || value != "bundles/mnist" {
		t.Errorf("splitSpec full form = %q %q %q %v", name, version, value, err)
	}
	name, version, value, err = splitSpec("mnist=dir")
	if err != nil || name != "mnist" || version != "v1" || value != "dir" {
		t.Errorf("splitSpec default version = %q %q %q %v", name, version, value, err)
	}
	name, version, value, err = splitSpec("arch1")
	if err != nil || name != "arch1" || version != "v1" || value != "arch1" {
		t.Errorf("splitSpec legacy bare form = %q %q %q %v", name, version, value, err)
	}
	if _, _, _, err := splitSpec("=x"); err == nil {
		t.Error("empty name accepted")
	}

	wname, split, err := parseWeights("mnist=v1:0.9,v2:0.1")
	if err != nil || wname != "mnist" || split["v1"] != 0.9 || split["v2"] != 0.1 {
		t.Errorf("parseWeights = %q %v %v", wname, split, err)
	}
	for _, bad := range []string{"mnist", "mnist=v1", "mnist=v1:x", "=v1:1", "mnist=v1:0.9,v1:0.1"} {
		if _, _, err := parseWeights(bad); err == nil {
			t.Errorf("parseWeights accepted %q", bad)
		}
	}

	// loadModels: demo specs build registrable models; no specs is an error.
	ms, err := loadModels(nil, []string{"fc=arch1", "conv@v2=arch3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || serve.ModelID(ms[0]) != "fc@v1" || serve.ModelID(ms[1]) != "conv@v2" {
		ids := make([]string, len(ms))
		for i, m := range ms {
			ids[i] = serve.ModelID(m)
		}
		t.Errorf("loadModels demo ids = %v", ids)
	}
	if _, err := loadModels(nil, nil); err == nil {
		t.Error("no model sources accepted")
	}
	if _, err := loadModels(nil, []string{"x=arch9"}); err == nil ||
		!strings.Contains(err.Error(), "arch9") {
		t.Errorf("unknown demo arch error = %v", err)
	}

	// -quantize derives an Int16Spectral sibling under <version>-q<bits>.
	qs, err := quantizeModels(ms, []string{"fc=12"})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 || serve.ModelID(qs[0]) != "fc@v1-q12" {
		t.Fatalf("quantizeModels ids = %v", qs)
	}
	if qs[0].InDim() != ms[0].InDim() || qs[0].OutDim() != ms[0].OutDim() {
		t.Errorf("quantized build dims %d/%d differ from float %d/%d",
			qs[0].InDim(), qs[0].OutDim(), ms[0].InDim(), ms[0].OutDim())
	}
	for _, bad := range []string{"fc=x", "fc=99", "nosuch=12", "fc@v9=12"} {
		if _, err := quantizeModels(ms, []string{bad}); err == nil {
			t.Errorf("quantizeModels accepted %q", bad)
		}
	}
}

// TestModelFlagLoadsBundle: -model name[@version]=dir loads a cmd/train
// bundle directory (arch.txt + params.bin) through the engine.
func TestModelFlagLoadsBundle(t *testing.T) {
	dir := t.TempDir()
	arch := "input 64\ncircfc 32 block=16 act=relu\nfc 10\n"
	e, err := engine.ParseArchitecture(strings.NewReader(arch), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "arch.txt"), []byte(arch), 0o644); err != nil {
		t.Fatal(err)
	}
	var params bytes.Buffer
	if err := engine.SaveParameters(&params, e.Net); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "params.bin"), params.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	ms, err := loadModels([]string{"mnist@v2=" + dir}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || serve.ModelID(ms[0]) != "mnist@v2" {
		t.Fatalf("-model loaded %d models, want one mnist@v2", len(ms))
	}
	if ms[0].InDim() != 64 || ms[0].OutDim() != 10 {
		t.Errorf("bundle model dims %d/%d, want 64/10", ms[0].InDim(), ms[0].OutDim())
	}
}

// TestPprofRegistration: the -pprof surface is opt-in — absent by default,
// live under /debug/pprof/ once registered.
func TestPprofRegistration(t *testing.T) {
	_, ts := newTestServer(t, 0)

	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof reachable without -pprof: status %d", resp.StatusCode)
	}

	reg := serve.NewRegistry(serve.Options{Workers: 1, MaxBatch: 2})
	defer reg.Close()
	m, err := model.New("test", "v1", testNet(3), program.CompileOptions{InShape: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	mux := newMux(reg, time.Now(), nil, metrics.NewRegistry(), nil)
	registerPprof(mux)
	ts2 := httptest.NewServer(mux)
	defer ts2.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		resp, err := http.Get(ts2.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, body %q", path, resp.StatusCode, body)
		}
	}
}

// TestAdmissionHTTP429 pins the HTTP overload contract: past the
// controller's caps the handler answers 429 with a Retry-After header and
// a structured JSON error, before reading the request body; under the
// caps traffic is unaffected; and a released ticket restores capacity.
func TestAdmissionHTTP429(t *testing.T) {
	reg := serve.NewRegistry(serve.Options{Workers: 1, MaxBatch: 4})
	defer reg.Close()
	m, err := model.New("test", "v1", testNet(5), program.CompileOptions{InShape: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	ctrl := admission.New(admission.Config{MaxInflight: 1, RetryAfter: 2 * time.Second})
	hs := httptest.NewServer(newMux(reg, time.Now(), ctrl, metrics.NewRegistry(), nil))
	defer hs.Close()
	url := hs.URL + "/v1/models/test/infer"
	body, _ := json.Marshal(map[string]any{"input": make([]float64, 64)})

	// Under the cap: normal service.
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("uncontended request: status %d", resp.StatusCode)
	}

	// Hold the only slot, then overload.
	ticket, err := ctrl.Admit("test")
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded request: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After header %q, want \"2\"", got)
	}
	var payload struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &payload); err != nil || payload.Error == "" {
		t.Errorf("429 body %q is not a structured error", raw)
	}

	// Releasing the ticket restores service.
	ticket.Release()
	resp, err = http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-release request: status %d", resp.StatusCode)
	}
	st := ctrl.Stats()
	if st.ShedInflight == 0 || st.Inflight != 0 {
		t.Errorf("controller stats %+v after shed and quiesce", st)
	}
}
