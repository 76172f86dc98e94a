package main

import (
	"net/http"

	"repro/internal/metrics"
	"repro/internal/serve/httpapi"
	"repro/internal/vector"
)

// Metric families the vector tier exposes on the shared /metrics registry.
const (
	metricVectorCollections  = "repro_vector_collections"
	metricVectorVectors      = "repro_vector_vectors"
	metricVectorQueriesTotal = "repro_vector_queries_total"
	metricVectorUpsertsTotal = "repro_vector_upserts_total"
)

// registerVectorMetrics exposes the store's aggregate counters. The store
// already counts queries and upserts per collection with atomics; the
// callback-backed families read those same counters at scrape time, so the
// exposition can never drift from the store's own accounting.
func registerVectorMetrics(mx *metrics.Registry, vs *vector.Store) {
	mx.GaugeFunc(metricVectorCollections, "Vector collections currently held.",
		func() float64 { c, _, _, _ := vs.Totals(); return float64(c) })
	mx.GaugeFunc(metricVectorVectors, "Vectors currently held across all collections.",
		func() float64 { _, v, _, _ := vs.Totals(); return float64(v) })
	mx.CounterFunc(metricVectorQueriesTotal, "Top-k similarity searches served.",
		func() float64 { _, _, q, _ := vs.Totals(); return float64(q) })
	mx.CounterFunc(metricVectorUpsertsTotal, "Vectors inserted or updated.",
		func() float64 { _, _, _, u := vs.Totals(); return float64(u) })
}

// upsertRequest is the JSON body of PUT /v1/vectors/{collection}: parallel
// id and vector lists. The collection is created on first upsert with the
// vectors' dimension; later upserts must match it.
type upsertRequest struct {
	IDs     []string    `json:"ids"`
	Vectors [][]float32 `json:"vectors"`
}

// DecodeMember implements httpapi.JSONObject.
func (req *upsertRequest) DecodeMember(d *httpapi.JSONDecoder) {
	switch d.Field("ids", "vectors") {
	case 0:
		req.IDs = d.Strings(req.IDs)
	case 1:
		req.Vectors = d.Float32Rows(req.Vectors)
	}
}

// searchRequest is the JSON body of POST /v1/vectors/{collection}/search.
type searchRequest struct {
	Vector    []float32 `json:"vector"`
	K         int       `json:"k"`
	Metric    string    `json:"metric,omitempty"`    // "cosine" (default) or "dot"
	Quantized bool      `json:"quantized,omitempty"` // score against the int8 mirror
	NProbe    int       `json:"nprobe,omitempty"`    // >0 selects the ANN index
}

// DecodeMember implements httpapi.JSONObject.
func (req *searchRequest) DecodeMember(d *httpapi.JSONDecoder) {
	switch d.Field("vector", "k", "metric", "quantized", "nprobe") {
	case 0:
		req.Vector = d.Float32s(req.Vector)
	case 1:
		req.K = d.Int(req.K)
	case 2:
		req.Metric = d.String(req.Metric)
	case 3:
		req.Quantized = d.Bool(req.Quantized)
	case 4:
		req.NProbe = d.Int(req.NProbe)
	}
}

// trainRequest is the JSON body of POST /v1/vectors/{collection}/train.
type trainRequest struct {
	K    int   `json:"k"`
	Seed int64 `json:"seed,omitempty"`
}

// DecodeMember implements httpapi.JSONObject.
func (req *trainRequest) DecodeMember(d *httpapi.JSONDecoder) {
	switch d.Field("k", "seed") {
	case 0:
		req.K = d.Int(req.K)
	case 1:
		req.Seed = d.Int64(req.Seed)
	}
}

// collectionInfo is one row of the GET /v1/vectors listing.
type collectionInfo struct {
	Name     string `json:"name"`
	Dim      int    `json:"dim"`
	Count    int    `json:"count"`
	TrainedK int    `json:"trained_k,omitempty"` // ANN centroid count, 0 = untrained
}

// registerVectorAPI mounts the vector tier's endpoints on the serving mux:
//
//	GET  /v1/vectors                       list collections
//	PUT  /v1/vectors/{collection}          upsert vectors (creates on first use)
//	POST /v1/vectors/{collection}/search   top-k similarity search
//	POST /v1/vectors/{collection}/train    build the IVF ANN index
func registerVectorAPI(mux *http.ServeMux, vs *vector.Store) {
	mux.HandleFunc("GET /v1/vectors", func(w http.ResponseWriter, r *http.Request) {
		names := vs.Names()
		infos := make([]collectionInfo, 0, len(names))
		for _, n := range names {
			c, ok := vs.Get(n)
			if !ok {
				continue
			}
			info := collectionInfo{Name: n, Dim: c.Dim(), Count: c.Len()}
			if k, _, trained := c.Trained(); trained {
				info.TrainedK = k
			}
			infos = append(infos, info)
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"collections": infos})
	})

	mux.HandleFunc("PUT /v1/vectors/{collection}", func(w http.ResponseWriter, r *http.Request) {
		var req upsertRequest
		if err := httpapi.ReadJSON(http.MaxBytesReader(w, r.Body, httpapi.MaxBodyBytes), &req); err != nil {
			httpapi.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON: " + err.Error()})
			return
		}
		if len(req.Vectors) == 0 {
			httpapi.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "no vectors"})
			return
		}
		c, err := vs.Ensure(r.PathValue("collection"), len(req.Vectors[0]))
		if err != nil {
			httpapi.WriteError(w, err)
			return
		}
		added, updated, err := c.Upsert(req.IDs, req.Vectors)
		if err != nil {
			httpapi.WriteError(w, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"added": added, "updated": updated, "count": c.Len()})
	})

	mux.HandleFunc("POST /v1/vectors/{collection}/search", func(w http.ResponseWriter, r *http.Request) {
		c, ok := vs.Get(r.PathValue("collection"))
		if !ok {
			httpapi.WriteJSON(w, http.StatusNotFound, map[string]string{"error": "no such collection"})
			return
		}
		var req searchRequest
		if err := httpapi.ReadJSON(http.MaxBytesReader(w, r.Body, httpapi.MaxBodyBytes), &req); err != nil {
			httpapi.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON: " + err.Error()})
			return
		}
		opt := vector.SearchOptions{Quantized: req.Quantized, NProbe: req.NProbe}
		if req.Metric != "" {
			m, err := vector.ParseMetric(req.Metric)
			if err != nil {
				httpapi.WriteError(w, err)
				return
			}
			opt.Metric = m
		}
		results, err := c.Search(req.Vector, req.K, opt)
		if err != nil {
			httpapi.WriteError(w, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"results": results})
	})

	mux.HandleFunc("POST /v1/vectors/{collection}/train", func(w http.ResponseWriter, r *http.Request) {
		c, ok := vs.Get(r.PathValue("collection"))
		if !ok {
			httpapi.WriteJSON(w, http.StatusNotFound, map[string]string{"error": "no such collection"})
			return
		}
		var req trainRequest
		if err := httpapi.ReadJSON(http.MaxBytesReader(w, r.Body, httpapi.MaxBodyBytes), &req); err != nil {
			httpapi.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON: " + err.Error()})
			return
		}
		if err := c.TrainANN(req.K, req.Seed); err != nil {
			httpapi.WriteError(w, err)
			return
		}
		k, n, _ := c.Trained()
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"trained_k": k, "count": n})
	})
}
