package main

import (
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/serve/admission"
	"repro/internal/serve/httpapi"
	"repro/internal/vector"
)

// registerPprof mounts net/http/pprof's handlers under /debug/pprof/ on
// the serving mux. Deliberate opt-in (the -pprof flag): the profiling
// endpoints expose process internals and add handlers to a
// production-facing surface, but with them a live server can be profiled
// exactly as the perf work on the spectral kernels profiles benchmarks —
// `go tool pprof http://host/debug/pprof/profile` against real traffic.
func registerPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// metricEmbedRequests counts /embed posts (any outcome past admission).
const metricEmbedRequests = "repro_embed_requests_total"

// newMux builds the HTTP surface over a model registry. Factored out of
// main so the handler wiring is testable (the endpoint regression tests
// drive it through httptest). The inference endpoints are the shared front
// end (internal/serve/httpapi) mounted twice, once per payload format.
// ctrl, when non-nil, is the admission controller shared with the
// streaming listener — one capacity budget across both protocols; nil
// admits everything. mx is the process metrics registry served at GET
// /metrics in Prometheus text exposition format; the serving layers
// register their series into it, so the scrape and the /stats JSON read
// the same counters.
// vs is the vector tier's collection store; nil creates a fresh one (the
// endpoints are always mounted — an empty store costs nothing).
func newMux(reg *serve.Registry, start time.Time, ctrl *admission.Controller, mx *metrics.Registry, vs *vector.Store) *http.ServeMux {
	if vs == nil {
		vs = vector.NewStore()
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", mx.Handler())
	registerVectorAPI(mux, vs)
	registerVectorMetrics(mx, vs)
	embedRequests := mx.Counter(metricEmbedRequests, "POST /embed requests accepted by admission control.")
	mux.Handle("POST /v1/models/{id}/embed", httpapi.Handler(reg, httpapi.Embed, ctrl, embedRequests))
	mux.Handle("POST /v1/models/{id}/infer", httpapi.Handler(reg, httpapi.Infer, ctrl, nil))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{
			"status":   "ok",
			"models":   reg.Len(),
			"uptime_s": time.Since(start).Seconds(),
		})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"models": reg.Models()})
	})
	mux.HandleFunc("GET /v1/models/{id}/stats", func(w http.ResponseWriter, r *http.Request) {
		name, version := model.ParseID(r.PathValue("id"))
		st, err := reg.Stats(name, version)
		if err != nil {
			httpapi.WriteError(w, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, st)
	})
	return mux
}
