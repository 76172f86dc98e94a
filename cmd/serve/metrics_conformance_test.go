package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/embed"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/program"
	"repro/internal/serve"
	"repro/internal/serve/admission"
	"repro/internal/serve/stream"
	"repro/tools/promcheck"
)

// scrapeMetrics fetches GET /metrics, requires the Prometheus content
// type, and returns the raw exposition body.
func scrapeMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("/metrics Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// seriesValues parses an exposition into series-line → value. Keys are
// the sample as exposed, e.g. `repro_requests_total{model="test@v1"}`.
func seriesValues(t *testing.T, exposition string) map[string]float64 {
	t.Helper()
	vals := make(map[string]float64)
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparsable sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparsable value in %q: %v", line, err)
		}
		vals[line[:i]] = v
	}
	return vals
}

// sumPrefix sums every series whose key starts with prefix — the
// per-shard cache counters aggregate this way.
func sumPrefix(vals map[string]float64, prefix string) float64 {
	var sum float64
	for k, v := range vals {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// TestMetricsConformance boots the same wiring main assembles — registry
// with a metrics registry, admission controller, streaming listener —
// drives real traffic through the HTTP mux, then scrapes /metrics and
// validates the exposition with the promcheck parser CI uses. This is
// the metrics-conformance gate: any series the serving layers emit that
// breaks the 0.0.4 text format (bad name, missing HELP/TYPE, inconsistent
// histogram) fails here before a real Prometheus ever scrapes it.
func TestMetricsConformance(t *testing.T) {
	mx := metrics.NewRegistry()
	ctrl := admission.New(admission.Config{MaxInflight: 64})
	ctrl.RegisterMetrics(mx)
	reg := serve.NewRegistry(serve.Options{
		Workers:   2,
		MaxBatch:  4,
		MaxDelay:  100 * time.Microsecond,
		CacheSize: 8,
		Metrics:   mx,
	})
	m, err := model.New("test", "v1", testNet(1), program.CompileOptions{InShape: []int{64}})
	if err != nil {
		t.Fatal(err)
	}
	// The embed sibling next to the scoring model — main's -embed wiring —
	// so the embed family is in the scrape too.
	em, err := embed.NewModel("test", "v1", testNet(1), []int{64})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(em); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(m); err != nil {
		t.Fatal(err)
	}
	ss := stream.NewServer(reg, stream.Options{Admission: ctrl, Metrics: mx})
	defer ss.Close()
	hs := httptest.NewServer(newMux(reg, time.Now(), ctrl, mx, nil))
	defer func() { hs.Close(); reg.Close() }()

	// Real traffic so counters and histogram buckets move: distinct
	// inputs (misses + forward passes) plus repeats (cache hits).
	rng := rand.New(rand.NewSource(2))
	inputs := make([][]float64, 6)
	for i := range inputs {
		inputs[i] = make([]float64, 64)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
	}
	for round := 0; round < 3; round++ {
		for _, in := range inputs {
			postInfer(t, hs.URL+"/v1/models/test/infer", in)
		}
	}
	// Embed and vector-tier traffic so their counters move too.
	body, _ := jsonBody(inputs[0])
	resp, err := http.Post(hs.URL+"/v1/models/test@v1/embed", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/embed status %d", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPut, hs.URL+"/v1/vectors/conf",
		strings.NewReader(`{"ids":["a","b"],"vectors":[[1,0],[0,1]]}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vector upsert status %d", resp.StatusCode)
	}
	resp, err = http.Post(hs.URL+"/v1/vectors/conf/search", "application/json",
		strings.NewReader(`{"vector":[1,0],"k":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vector search status %d", resp.StatusCode)
	}

	exposition := scrapeMetrics(t, hs.URL)
	if err := promcheck.Check(strings.NewReader(exposition)); err != nil {
		t.Fatalf("/metrics fails exposition conformance:\n%v", err)
	}

	// Every serving layer must be represented in the scrape.
	for _, family := range []string{
		serve.MetricRequestLatency + "_bucket",
		serve.MetricBatchSize + "_bucket",
		serve.MetricBatchFill,
		serve.MetricQueueDepth,
		serve.MetricRequests,
		serve.MetricCompleted,
		serve.MetricShed,
		serve.MetricCacheHits,
		serve.MetricCacheMisses,
		serve.MetricCacheEntries,
		serve.MetricWorkers,
		"repro_admission_admitted_total",
		"repro_admission_shed_total",
		`repro_admission_shed_total{reason="fairness"}`,
		"repro_admission_inflight",
		"repro_stream_conns",
		"repro_stream_frames_total",
		"repro_stream_writes_total",
		"repro_stream_pipeline_depth",
		"repro_stream_goaways_total",
		metricEmbedRequests,
		metricVectorCollections,
		metricVectorVectors,
		metricVectorQueriesTotal,
		metricVectorUpsertsTotal,
	} {
		if !strings.Contains(exposition, family) {
			t.Errorf("scrape is missing family %s", family)
		}
	}

	// The latency histogram must have absorbed the completed passes.
	vals := seriesValues(t, exposition)
	count := vals[serve.MetricRequestLatency+`_count{model="test@v1"}`]
	if count <= 0 {
		t.Fatalf("latency histogram count = %g after traffic", count)
	}
}

// TestStatsMetricsParity is the HTTP-level /stats ↔ /metrics parity
// regression: both surfaces aggregate the same per-shard and collector
// counters, so after any traffic mix — including cache hits and SLO
// sheds — the JSON totals and the scraped series must agree exactly.
func TestStatsMetricsParity(t *testing.T) {
	t.Run("cacheHitsAndRequests", func(t *testing.T) {
		mx := metrics.NewRegistry()
		reg := serve.NewRegistry(serve.Options{
			Workers:   2,
			MaxBatch:  4,
			MaxDelay:  100 * time.Microsecond,
			CacheSize: 128, // room for all five inputs in any one shard of the seeded hash
			Metrics:   mx,
		})
		m, err := model.New("test", "v1", testNet(1), program.CompileOptions{InShape: []int{64}})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(m); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(newMux(reg, time.Now(), nil, mx, nil))
		defer func() { hs.Close(); reg.Close() }()

		rng := rand.New(rand.NewSource(3))
		inputs := make([][]float64, 5)
		for i := range inputs {
			inputs[i] = make([]float64, 64)
			for j := range inputs[i] {
				inputs[i][j] = rng.NormFloat64()
			}
		}
		for round := 0; round < 4; round++ {
			for _, in := range inputs {
				postInfer(t, hs.URL+"/v1/models/test/infer", in)
			}
		}

		st, err := getStats(hs.URL + "/v1/models/test/stats")
		if err != nil {
			t.Fatal(err)
		}
		if st.CacheHits == 0 {
			t.Fatal("traffic produced no cache hits; parity check is vacuous")
		}
		vals := seriesValues(t, scrapeMetrics(t, hs.URL))
		assertSeries(t, vals, serve.MetricRequests+`{model="test@v1"}`, float64(st.Requests))
		assertSeries(t, vals, serve.MetricCompleted+`{model="test@v1"}`, float64(st.Completed))
		assertSeries(t, vals, serve.MetricCacheEntries+`{model="test@v1"}`, float64(st.CacheEntries))
		if got := sumPrefix(vals, serve.MetricCacheHits+`{model="test@v1"`); got != float64(st.CacheHits) {
			t.Errorf("sum of cache-hit shards = %g, /stats says %d", got, st.CacheHits)
		}
		if got := sumPrefix(vals, serve.MetricCacheMisses+`{model="test@v1"`); got != float64(st.CacheMisses) {
			t.Errorf("sum of cache-miss shards = %g, /stats says %d", got, st.CacheMisses)
		}
	})

	t.Run("sheds", func(t *testing.T) {
		mx := metrics.NewRegistry()
		// SLO of 1ns: every admitted request is already past its
		// deadline when a worker picks it up, so all of them shed.
		reg := serve.NewRegistry(serve.Options{
			Workers:  1,
			MaxBatch: 4,
			SLO:      time.Nanosecond,
			Metrics:  mx,
		})
		m, err := model.New("test", "v1", testNet(1), program.CompileOptions{InShape: []int{64}})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(m); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(newMux(reg, time.Now(), nil, mx, nil))
		defer func() { hs.Close(); reg.Close() }()

		in := make([]float64, 64)
		body, _ := jsonBody(in)
		for i := 0; i < 8; i++ {
			resp, err := http.Post(hs.URL+"/v1/models/test/infer", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}

		st, err := getStats(hs.URL + "/v1/models/test/stats")
		if err != nil {
			t.Fatal(err)
		}
		if st.Shed == 0 {
			t.Fatal("SLO=1ns produced no sheds; parity check is vacuous")
		}
		vals := seriesValues(t, scrapeMetrics(t, hs.URL))
		assertSeries(t, vals, serve.MetricShed+`{model="test@v1",reason="slo"}`, float64(st.Shed))
		assertSeries(t, vals, serve.MetricRequests+`{model="test@v1"}`, float64(st.Requests))
	})

	// The streaming listener's counters through both surfaces, after
	// pipelined traffic and a complete drain: Stats() and the scrape read
	// the same atomics, and every socket write carried at least one frame.
	t.Run("stream", func(t *testing.T) {
		mx := metrics.NewRegistry()
		reg := serve.NewRegistry(serve.Options{Workers: 2, MaxBatch: 4, MaxDelay: 100 * time.Microsecond})
		m, err := model.New("test", "v1", testNet(1), program.CompileOptions{InShape: []int{64}})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Register(m); err != nil {
			t.Fatal(err)
		}
		defer reg.Close()
		ss := stream.NewServer(reg, stream.Options{Metrics: mx})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- ss.Serve(ln) }()
		defer func() { ss.Close(); <-served }()
		hs := httptest.NewServer(newMux(reg, time.Now(), nil, mx, nil))
		defer hs.Close()

		cl, err := stream.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		const callers, each = 8, 10
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				in := [][]float64{make([]float64, 64)}
				for i := 0; i < each; i++ {
					if _, err := cl.Do(ctx, "test", in); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if err := cl.Close(ctx); err != nil {
			t.Fatal(err)
		}
		// The connection is gone once its last frame, the GOAWAY, is out.
		for ss.Stats().Conns != 0 {
			if ctx.Err() != nil {
				t.Fatal("connection still open after the client's drain")
			}
			time.Sleep(time.Millisecond)
		}

		st := ss.Stats()
		if st.Frames != callers*each || st.Responses != callers*each {
			t.Fatalf("frames=%d responses=%d, want %d each", st.Frames, st.Responses, callers*each)
		}
		if st.Writes == 0 || st.Writes > st.Responses+st.GoAways {
			t.Errorf("writes=%d for %d responses and %d GOAWAYs: want at least one frame per write", st.Writes, st.Responses, st.GoAways)
		}
		vals := seriesValues(t, scrapeMetrics(t, hs.URL))
		assertSeries(t, vals, "repro_stream_conns_total", float64(st.TotalConns))
		assertSeries(t, vals, "repro_stream_frames_total", float64(st.Frames))
		assertSeries(t, vals, "repro_stream_responses_total", float64(st.Responses))
		assertSeries(t, vals, "repro_stream_writes_total", float64(st.Writes))
		assertSeries(t, vals, "repro_stream_shed_total", float64(st.Shed))
		assertSeries(t, vals, "repro_stream_goaways_total", float64(st.GoAways))
		assertSeries(t, vals, "repro_stream_pipeline_depth", 0)
	})
}

func assertSeries(t *testing.T, vals map[string]float64, key string, want float64) {
	t.Helper()
	got, ok := vals[key]
	if !ok {
		t.Errorf("scrape has no series %s", key)
		return
	}
	if got != want {
		t.Errorf("%s = %g, /stats says %g", key, got, want)
	}
}

func jsonBody(input []float64) ([]byte, error) {
	var b strings.Builder
	b.WriteString(`{"input":[`)
	for i, v := range input {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%g", v)
	}
	b.WriteString(`]}`)
	return []byte(b.String()), nil
}
