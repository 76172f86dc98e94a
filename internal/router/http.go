package router

import (
	"net/http"

	"repro/internal/metrics"
	"repro/internal/serve/httpapi"
)

// Mux builds the router's HTTP front end — the same /v1 surface a single
// cmd/serve exposes, answered by the fleet, plus the fleet-only admin
// endpoints:
//
//	POST /v1/models/{id}/infer   routed inference (JSON or wire v1)
//	POST /v1/models/{id}/embed   proxied to the route's rendezvous owner
//	PUT  /v1/vectors/{collection}         proxied to the collection's owner
//	POST /v1/vectors/{collection}/search  proxied to the collection's owner
//	POST /v1/vectors/{collection}/train   proxied to the collection's owner
//	GET  /v1/models              merged, deduplicated fleet view
//	GET  /v1/backends            per-backend health/breaker/drain status
//	POST /v1/backends/{addr}/drain    exclude a backend from routing
//	POST /v1/backends/{addr}/undrain  restore it
//	GET  /stats                  router counters
//	GET  /healthz                liveness + backend summary
//	GET  /metrics                when mx is non-nil
func (rt *Router) Mux(mx *metrics.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	if mx != nil {
		mux.Handle("GET /metrics", mx.Handler())
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		healthy := 0
		for _, b := range rt.backends {
			if b.br.Closed() && !b.draining.Load() {
				healthy++
			}
		}
		status := http.StatusOK
		if healthy == 0 {
			status = http.StatusServiceUnavailable
		}
		httpapi.WriteJSON(w, status, map[string]any{
			"status":   map[bool]string{true: "ok", false: "no-backends"}[healthy > 0],
			"backends": len(rt.backends),
			"healthy":  healthy,
		})
	})
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"models": rt.Models()})
	})
	// The single-process front end itself, answered by the fleet: a client
	// cannot tell a router from a backend by its responses.
	mux.Handle("POST /v1/models/{id}/infer", httpapi.Handler(rt, httpapi.Infer, nil, nil))
	// HTTP-proxied endpoints: embeddings and the vector tier are stateful
	// on the backend (embed models, collections), so the router forwards
	// them whole to the rendezvous-ranked owner rather than re-implement
	// them. Keyed on the route for /embed and on the collection for
	// /v1/vectors, so one collection's upserts and searches meet on the
	// same backend.
	mux.HandleFunc("POST /v1/models/{id}/embed", func(w http.ResponseWriter, r *http.Request) {
		rt.proxyHTTP(w, r, r.PathValue("id"))
	})
	proxyByCollection := func(w http.ResponseWriter, r *http.Request) {
		rt.proxyHTTP(w, r, r.PathValue("collection"))
	}
	mux.HandleFunc("PUT /v1/vectors/{collection}", proxyByCollection)
	mux.HandleFunc("POST /v1/vectors/{collection}/search", proxyByCollection)
	mux.HandleFunc("POST /v1/vectors/{collection}/train", proxyByCollection)
	mux.HandleFunc("GET /v1/backends", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, map[string]any{"backends": rt.Backends()})
	})
	drain := func(draining bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			addr := r.PathValue("addr")
			if !rt.SetDraining(addr, draining) {
				httpapi.WriteJSON(w, http.StatusNotFound, map[string]string{"error": "no backend " + addr})
				return
			}
			httpapi.WriteJSON(w, http.StatusOK, map[string]any{"addr": addr, "draining": draining})
		}
	}
	mux.HandleFunc("POST /v1/backends/{addr}/drain", drain(true))
	mux.HandleFunc("POST /v1/backends/{addr}/undrain", drain(false))
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, rt.Stats())
	})
	return mux
}
