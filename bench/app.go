package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/internal/vector"
)

// http_app_mix is the application on top: one cmd/serve -embed over
// HTTP/JSON, closed-loop sessions on keep-alive connections. A session
// embeds an input, searches the collection with the returned vector and
// infers twice on skewed (cached) inputs; every tenth session also
// rewrites stored vectors, so reads run beside copy-on-write writes.

const (
	appConns      = 2
	appCollection = "bench"
	appSearchK    = 10
)

type appInst struct {
	e      *env
	bundle string
	pool   [][]float64
	oracle *oracle
	embeds [][]float64 // expected embedding per pool input
	bodies [][]byte    // {"input":[…]} per pool input, shared by /infer and /embed

	proc    *proc
	vectors [][]float32 // the stored vectors, as the server returned them
	ctx     context.Context
	cancel  context.CancelFunc
}

func vectorID(i int) string { return "v" + strconv.Itoa(i) }

func appendFloats[T float32 | float64](dst []byte, vals []T, bits int) []byte {
	dst = append(dst, '[')
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, float64(v), 'g', -1, bits)
	}
	return append(dst, ']')
}

func prepareApp(e *env) (instance, error) {
	net := newModel()
	bundle := filepath.Join(e.workDir, "model", modelName)
	if err := writeBundle(bundle, net, []int{arch1Features}); err != nil {
		return nil, err
	}
	in := &appInst{e: e, bundle: bundle, pool: newPool(e.seed, appPool, arch1Features)}
	in.oracle = newOracle(net, in.pool, 0)
	if e.corrupt {
		for i := range in.pool {
			in.oracle.corrupt(i)
		}
	}
	in.embeds = forwardAll(embeddingNet(net), in.pool)
	in.bodies = make([][]byte, len(in.pool))
	for i, row := range in.pool {
		in.bodies[i] = append(appendFloats([]byte(`{"input":`), row, 64), '}')
	}
	return in, nil
}

func newKeepAliveClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// call posts body and decodes the 200 answer into out; buf is the lane's
// reusable read buffer.
func call(ctx context.Context, c *http.Client, method, url string, body []byte, buf *bytes.Buffer, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return json.Unmarshal(buf.Bytes(), out)
}

type embedAnswer struct {
	Embedding  []float64   `json:"embedding"`
	Embeddings [][]float64 `json:"embeddings"`
}

type searchAnswer struct {
	Results []vector.Result `json:"results"`
}

type upsertAnswer struct {
	Added   int `json:"added"`
	Updated int `json:"updated"`
	Count   int `json:"count"`
}

func (in *appInst) url(path string) string { return in.proc.httpURL + path }

const (
	pathInfer  = "/v1/models/" + modelName + "/infer"
	pathEmbed  = "/v1/models/" + modelName + "/embed"
	pathUpsert = "/v1/vectors/" + appCollection
	pathSearch = "/v1/vectors/" + appCollection + "/search"
)

// setUp spawns the server, embeds the whole pool through it and stores
// the vectors: the state a session expects to find.
func (in *appInst) setUp() error {
	p, err := startServe(in.e, in.e.workload+"-serve", in.bundle, "-embed", modelName)
	if err != nil {
		return err
	}
	in.proc = p
	return in.preload()
}

// preload embeds every pool input through the server's /embed endpoint
// and PUTs the returned vectors into the collection.
func (in *appInst) preload() error {
	ctx, cancel := context.WithTimeout(context.Background(), readyTimeout)
	defer cancel()
	c, buf := newKeepAliveClient(), new(bytes.Buffer)
	defer c.CloseIdleConnections()
	in.vectors = in.vectors[:0]
	for lo := 0; lo < len(in.pool); lo += serve.MaxWireInputs {
		hi := min(lo+serve.MaxWireInputs, len(in.pool))
		body := []byte(`{"inputs":[`)
		for i := lo; i < hi; i++ {
			if i > lo {
				body = append(body, ',')
			}
			body = appendFloats(body, in.pool[i], 64)
		}
		body = append(body, "]}"...)
		var ans embedAnswer
		if err := call(ctx, c, http.MethodPost, in.url(pathEmbed), body, buf, &ans); err != nil {
			return err
		}
		if len(ans.Embeddings) != hi-lo {
			return fmt.Errorf("embed preload: %d vectors for %d inputs", len(ans.Embeddings), hi-lo)
		}
		for _, emb := range ans.Embeddings {
			in.vectors = append(in.vectors, narrow(nil, emb))
		}
	}
	var ans upsertAnswer
	if err := call(ctx, c, http.MethodPut, in.url(pathUpsert), in.upsertBody(nil, 0, len(in.vectors)), buf, &ans); err != nil {
		return err
	}
	if ans.Count != len(in.pool) {
		return fmt.Errorf("collection preload: count %d, want %d", ans.Count, len(in.pool))
	}
	return nil
}

// narrow appends emb to dst as float32, the vector tier's dtype.
func narrow(dst []float32, emb []float64) []float32 {
	for _, x := range emb {
		dst = append(dst, float32(x))
	}
	return dst
}

// searchBody renders a top-k search for vec.
func searchBody(dst []byte, vec []float32) []byte {
	dst = append(appendFloats(append(dst[:0], `{"vector":`...), vec, 32), `,"k":`...)
	return append(strconv.AppendInt(dst, appSearchK, 10), '}')
}

// upsertBody renders a PUT body for stored vectors [lo, lo+n).
func (in *appInst) upsertBody(dst []byte, lo, n int) []byte {
	dst = append(dst[:0], `{"ids":[`...)
	for i := lo; i < lo+n; i++ {
		if i > lo {
			dst = append(dst, ',')
		}
		dst = strconv.AppendQuote(dst, vectorID(i))
	}
	dst = append(dst, `],"vectors":[`...)
	for i := lo; i < lo+n; i++ {
		if i > lo {
			dst = append(dst, ',')
		}
		dst = appendFloats(dst, in.vectors[i], 32)
	}
	return append(dst, "]}"...)
}

func (in *appInst) tearDown() {
	if in.proc != nil {
		in.proc.stop(stopGrace)
		in.proc = nil
	}
	if in.cancel != nil {
		in.cancel()
		in.cancel = nil
	}
}

func (in *appInst) setupReps() int { return 3 }
func (in *appInst) lanes() int     { return appConns }
func (in *appInst) sutPIDs() []int { return []int{in.proc.pid()} }

func (in *appInst) scrapeURLs() ([]string, int) { return []string{in.proc.httpURL}, 1 }

func (in *appInst) begin(tl *timeline) error {
	in.ctx, in.cancel = context.WithDeadline(context.Background(), tl.end().Add(in.e.deadline))
	return nil
}

// appLane is one connection's reusable state.
type appLane struct {
	in      *appInst
	c       *http.Client
	buf     bytes.Buffer
	body    []byte
	vec32   []float32
	spans   *spanRing
	root    uint64
	req     uint64
	tracing bool
}

// step performs one HTTP call of a session, recording a child span when
// the session is traced.
func (a *appLane) step(name, method, path string, body []byte, out any) error {
	start := time.Now()
	err := call(a.in.ctx, a.c, method, a.in.url(path), body, &a.buf, out)
	if a.tracing {
		a.spans.add(name, start, time.Now(), a.root, a.req)
	}
	return err
}

// run performs one session; the error says which answer was wrong.
func (a *appLane) run(s session, deep bool) error {
	in := a.in
	var emb embedAnswer
	if err := a.step("http.embed", http.MethodPost, pathEmbed, in.bodies[s.embed], &emb); err != nil {
		return err
	}
	if deep && !rowsClose(in.embeds[s.embed], emb.Embedding, floatTol) {
		return wrongAnswer("embed", s.embed)
	}
	a.vec32 = narrow(a.vec32[:0], emb.Embedding)
	a.body = searchBody(a.body, a.vec32)
	var hits searchAnswer
	if err := a.step("http.search", http.MethodPost, pathSearch, a.body, &hits); err != nil {
		return err
	}
	// The query is a stored input's own embedding: it must come back first.
	if len(hits.Results) != appSearchK || hits.Results[0].ID != vectorID(s.embed) {
		return wrongAnswer("search", s.embed)
	}
	for _, idx := range s.infer {
		var res serve.Result
		if err := a.step("http.infer", http.MethodPost, pathInfer, in.bodies[idx], &res); err != nil {
			return err
		}
		if !in.oracle.check(idx, res.Class, res.Scores, deep) {
			return wrongAnswer("infer", idx)
		}
	}
	if s.write {
		a.body = in.upsertBody(a.body, s.writeAt, upsertBatch)
		var up upsertAnswer
		if err := a.step("http.upsert", http.MethodPut, pathUpsert, a.body, &up); err != nil {
			return err
		}
		// Same ids, same vectors: the collection must not grow or change.
		if up.Added != 0 || up.Updated != upsertBatch || up.Count != len(in.pool) {
			return fmt.Errorf("upsert at %d: added %d, updated %d, count %d", s.writeAt, up.Added, up.Updated, up.Count)
		}
	}
	return nil
}

func (in *appInst) runLane(id int, l *lane, tl *timeline) {
	a := &appLane{in: in, c: newKeepAliveClient(), spans: l.spans}
	defer a.c.CloseIdleConnections()
	next := sessionPlan(in.e.seed, id, len(in.pool))
	end := tl.end()
	prev := time.Now()
	for {
		s := next()
		l.ops++
		start := time.Now()
		a.tracing = l.spans != nil && l.ops%sampleEvery == 0 && tl.tracing(start)
		if a.tracing {
			a.root, a.req = l.spans.nextID(), l.ops
		}
		err := a.run(s, l.ops%scoreCheckEvery == 0)
		done := time.Now()
		if a.tracing {
			l.spans.put(a.root, "session", start, done, 0, a.req)
		}
		l.record(tl, done, done.Sub(start), start.Sub(prev), err)
		prev = done
		if !done.Before(end) {
			return
		}
	}
}
