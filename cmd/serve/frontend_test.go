package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/embed"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/program"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/serve/admission"
	"repro/internal/serve/httpapi"
	"repro/internal/serve/stream"
)

// frontMount is one place the shared front end (internal/serve/httpapi) is
// mounted, with what a client of that mount speaks: the binary content
// type, its request encoder, a check of the binary response, and the
// top-level keys of the two JSON answers.
type frontMount struct {
	name       string
	url        string // the POST path for model "test"
	unknownURL string // the same endpoint for a model nobody serves
	wireType   string
	appendReq  func([]byte, [][]float64) ([]byte, error)
	wireRows   func(body []byte) (int, error) // rows in a binary response
	singleKeys string
	multiKeys  string
	listKey    string // the multi answer's per-input list
}

// TestFrontEndAcrossMounts drives one table of requests through all three
// mounts of the shared HTTP front end — cmd/serve /infer, cmd/serve
// /embed, and the fleet router's /infer in front of the same process — and
// requires the same status and body shape from each for every row: a
// client cannot tell which tier answered.
func TestFrontEndAcrossMounts(t *testing.T) {
	const slots = 16
	ctrl := admission.New(admission.Config{MaxInflight: slots, RetryAfter: 2 * time.Second})
	reg := serve.NewRegistry(serve.Options{Workers: 2, MaxBatch: 4, MaxDelay: 100 * time.Microsecond})
	m, err := model.New("test", "v1", testNet(1), program.CompileOptions{InShape: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	em, err := embed.NewModel("test", "v1", testNet(1), []int{64})
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range []model.Model{m, em} {
		if err := reg.Register(mm); err != nil {
			t.Fatal(err)
		}
	}
	hs := httptest.NewServer(newMux(reg, time.Now(), ctrl, metrics.NewRegistry(), nil))
	defer hs.Close()

	// The router tier: an RPS2 listener over the same registry (sharing the
	// admission controller, as cmd/serve -listen-tcp does), fronted by a
	// router whose HTTP mux is the third mount.
	ss := stream.NewServer(reg, stream.Options{Admission: ctrl})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go ss.Serve(ln)
	defer ss.Close()
	rt, err := router.New(router.Options{
		Backends:        []router.BackendConfig{{Addr: ln.Addr().String(), HTTPURL: hs.URL}},
		RefreshInterval: time.Hour, // the synchronous first refresh is the view
		ProbeInterval:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Close(ctx)
	}()
	rs := httptest.NewServer(rt.Mux(nil))
	defer rs.Close()

	inferRows := func(body []byte) (int, error) {
		res, err := serve.ParseWireResults(body, nil)
		return len(res), err
	}
	mounts := []frontMount{
		{"serve/infer", hs.URL + "/v1/models/test/infer", hs.URL + "/v1/models/absent/infer",
			serve.WireContentType, serve.AppendWireRequest, inferRows,
			"batch_size,cached,class,scores", "results", "results"},
		{"serve/embed", hs.URL + "/v1/models/test/embed", hs.URL + "/v1/models/absent/embed",
			embed.WireContentType, embed.AppendWireRequest,
			func(body []byte) (int, error) {
				vecs, err := embed.ParseWireResults(body, nil)
				return len(vecs), err
			},
			"dim,embedding", "dim,embeddings", "embeddings"},
		{"router/infer", rs.URL + "/v1/models/test/infer", rs.URL + "/v1/models/absent/infer",
			serve.WireContentType, serve.AppendWireRequest, inferRows,
			"batch_size,cached,class,scores", "results", "results"},
	}

	vec := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i%7) / 7
		}
		return v
	}
	jsonOf := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	wireOf := func(fm frontMount, inputs [][]float64) []byte {
		b, err := fm.appendReq(nil, inputs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	const asJSON, asWire = "application/json", "wire"
	rows := []struct {
		name        string
		contentType string // asJSON, asWire, or asWire plus a parameter suffix
		body        func(fm frontMount) []byte
		unknown     bool // post to the unknown-model URL
		status      int
		answers     int // on 200: 1 = single-shaped JSON, >1 = that many results
	}{
		{"json single", asJSON, func(frontMount) []byte { return jsonOf(map[string]any{"input": vec(64)}) }, false, 200, 1},
		{"json multi", asJSON, func(frontMount) []byte {
			return jsonOf(map[string]any{"inputs": [][]float64{vec(64), vec(64), vec(64)}})
		}, false, 200, 3},
		{"wire round trip", asWire, func(fm frontMount) []byte { return wireOf(fm, [][]float64{vec(64), vec(64)}) }, false, 200, 2},
		{"wire ;charset=", asWire + "; charset=binary", func(fm frontMount) []byte { return wireOf(fm, [][]float64{vec(64), vec(64)}) }, false, 200, 2},
		{"input and inputs", asJSON, func(frontMount) []byte { return []byte(`{"input":[1],"inputs":[[1]]}`) }, false, 400, 0},
		{"neither", asJSON, func(frontMount) []byte { return []byte(`{}`) }, false, 400, 0},
		{"257 inputs", asJSON, func(frontMount) []byte {
			return jsonOf(map[string]any{"inputs": make([][]float64, httpapi.MaxInputs+1)})
		}, false, 400, 0},
		{"bad json", asJSON, func(frontMount) []byte { return []byte(`{"input":[1,`) }, false, 400, 0},
		{"bad magic", asWire, func(frontMount) []byte { return []byte("XXXXXXXXXXXX") }, false, 400, 0},
		{"truncated wire", asWire, func(fm frontMount) []byte { b := wireOf(fm, [][]float64{vec(64)}); return b[:len(b)-8] }, false, 400, 0},
		{"trailing bytes", asWire, func(fm frontMount) []byte { return append(wireOf(fm, [][]float64{vec(64)}), 0xAA) }, false, 400, 0},
		{"wrong dim json", asJSON, func(frontMount) []byte { return jsonOf(map[string]any{"input": vec(3)}) }, false, 400, 0},
		{"wrong dim wire", asWire, func(fm frontMount) []byte { return wireOf(fm, [][]float64{vec(63)}) }, false, 400, 0},
		{"unknown model", asJSON, func(frontMount) []byte { return jsonOf(map[string]any{"input": vec(64)}) }, true, 404, 0},
	}

	post := func(fm frontMount, contentType string, body []byte, unknown bool) (*http.Response, []byte) {
		t.Helper()
		url := fm.url
		if unknown {
			url = fm.unknownURL
		}
		contentType = strings.Replace(contentType, asWire, fm.wireType, 1)
		resp, err := http.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, raw
	}
	// requireError: the status, plus the structured {"error": "..."} body
	// every failure of every mount carries.
	requireError := func(t *testing.T, resp *http.Response, raw []byte, status int) {
		t.Helper()
		if resp.StatusCode != status {
			t.Errorf("status %d, want %d (body %q)", resp.StatusCode, status, raw)
		}
		var payload struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &payload); err != nil || payload.Error == "" {
			t.Errorf("error body %q is not a structured {\"error\": ...}", raw)
		}
	}
	forEachMount := func(t *testing.T, name string, fn func(t *testing.T, fm frontMount)) {
		for _, fm := range mounts {
			t.Run(name+"/"+fm.name, func(t *testing.T) { fn(t, fm) })
		}
	}

	for _, row := range rows {
		forEachMount(t, row.name, func(t *testing.T, fm frontMount) {
			resp, raw := post(fm, row.contentType, row.body(fm), row.unknown)
			if row.status != http.StatusOK {
				requireError(t, resp, raw, row.status)
				return
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d, want 200 (body %q)", resp.StatusCode, raw)
			}
			if row.contentType != asJSON {
				if ct := resp.Header.Get("Content-Type"); ct != fm.wireType {
					t.Errorf("binary response Content-Type %q, want %q", ct, fm.wireType)
				}
				if n, err := fm.wireRows(raw); err != nil || n != row.answers {
					t.Errorf("binary response decodes to %d rows (err %v), want %d", n, err, row.answers)
				}
				return
			}
			var answer map[string]json.RawMessage
			if err := json.Unmarshal(raw, &answer); err != nil {
				t.Fatalf("JSON response %q: %v", raw, err)
			}
			keys := make([]string, 0, len(answer))
			for k := range answer {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			want := fm.singleKeys
			if row.answers > 1 {
				want = fm.multiKeys
				var list []json.RawMessage
				if err := json.Unmarshal(answer[fm.listKey], &list); err != nil || len(list) != row.answers {
					t.Errorf("multi answer carries %d results (err %v), want %d", len(list), err, row.answers)
				}
			}
			if got := strings.Join(keys, ","); got != want {
				t.Errorf("JSON answer keys %q, want %q", got, want)
			}
		})
	}

	// Shed: with every admission slot held, each mount answers 429 with the
	// controller's Retry-After — cmd/serve at its HTTP admission, the
	// router by passing the backend's typed overload through.
	// (The stream listener releases a frame's ticket just after writing
	// its response, so the router rows above may still hold one briefly.)
	for deadline := time.Now().Add(5 * time.Second); ctrl.Stats().Inflight != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("admission never quiesced: %+v", ctrl.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	held := make([]admission.Ticket, slots)
	for i := range held {
		if held[i], err = ctrl.Admit("other"); err != nil {
			t.Fatal(err)
		}
	}
	forEachMount(t, "shed", func(t *testing.T, fm frontMount) {
		resp, raw := post(fm, asJSON, jsonOf(map[string]any{"input": vec(64)}), false)
		requireError(t, resp, raw, http.StatusTooManyRequests)
		if got := resp.Header.Get("Retry-After"); got != "2" {
			t.Errorf("Retry-After %q, want \"2\"", got)
		}
	})
	for _, ticket := range held {
		ticket.Release()
	}

	// Closed: the registry is gone but the process still answers — 503,
	// from cmd/serve directly and through the router.
	reg.Close()
	forEachMount(t, "closed", func(t *testing.T, fm frontMount) {
		resp, raw := post(fm, asJSON, jsonOf(map[string]any{"input": vec(64)}), false)
		requireError(t, resp, raw, http.StatusServiceUnavailable)
	})
}
