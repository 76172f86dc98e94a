package router

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/serve/httpapi"
)

// Rendezvous (highest-random-weight) hashing gives the router cache
// affinity: every key — an inference route, or a vector collection — maps
// to a stable ranking of backends, and the router sends the key to the
// highest-ranked eligible one. Requests for one model version land on the
// process whose exact-input LRU is already warm, and a vector collection's
// upserts and searches land on the one process that holds it. When the chosen backend drops out (breaker open, draining,
// transport down) the key falls to its next-ranked backend — only the keys
// owned by the failed backend move, the rest of the fleet keeps its warm
// caches, which is precisely the property least-loaded routing lacks.

// rendezvousScore ranks one (key, backend) pair: FNV-1a over the key, an
// NUL separator and the backend address. Deterministic across processes,
// so a fleet of routers agrees on placement without coordination.
//
//repro:noalloc
func rendezvousScore(key, addr string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= 0
	h *= 1099511628211
	for i := 0; i < len(addr); i++ {
		h ^= uint64(addr[i])
		h *= 1099511628211
	}
	return h
}

// pickAffine is pick with rendezvous ranking instead of least-loaded: the
// highest-scoring eligible backend wins, so a route sticks to one backend
// while it stays healthy. The half-open probe fallback is unchanged.
//
//repro:noalloc
func (rt *Router) pickAffine(route string, exclude *backend) *backend {
	var best *backend
	var bestScore uint64
	for _, b := range rt.backends {
		if b == exclude || b.draining.Load() || !b.holds(route) || b.down() {
			continue
		}
		if !b.br.Closed() {
			continue
		}
		score := rendezvousScore(route, b.cfg.Addr)
		if best == nil || score > bestScore {
			best, bestScore = b, score
		}
	}
	if best != nil {
		return best
	}
	now := time.Now()
	for _, b := range rt.backends {
		if b == exclude || b.draining.Load() || !b.holds(route) || b.down() {
			continue
		}
		if b.br.TryProbe(now) {
			return b
		}
	}
	return nil
}

// proxyOrder returns every scrape-enabled, routable backend in descending
// rendezvous rank for key — the forwarding order for the HTTP-proxied
// endpoints (vector tier, /embed). Affinity is unconditional here: a
// vector collection lives on whichever backend its upserts landed on, so
// placement must be deterministic whether or not -affinity rankings were
// chosen for inference.
func (rt *Router) proxyOrder(key string) []*backend {
	var out []*backend
	for _, b := range rt.backends {
		if b.cfg.HTTPURL == "" || b.draining.Load() || b.down() || !b.br.Closed() {
			continue
		}
		out = append(out, b)
	}
	// Insertion sort by descending score; fleets are small.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && rendezvousScore(key, out[j].cfg.Addr) > rendezvousScore(key, out[j-1].cfg.Addr); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// proxyHTTP forwards the request body to the same path on the
// highest-ranked backend for key, falling to the next rank on transport
// failure (a backend that *answered* — any status — ends the walk: its
// verdict is the verdict). If no backend answers, the router does:
// ErrNoBackend, a 503.
func (rt *Router) proxyHTTP(w http.ResponseWriter, r *http.Request, key string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, httpapi.MaxBodyBytes))
	if err != nil {
		httpapi.WriteError(w, err)
		return
	}
	for _, b := range rt.proxyOrder(key) {
		req, err := http.NewRequestWithContext(r.Context(), r.Method,
			strings.TrimRight(b.cfg.HTTPURL, "/")+r.URL.Path, bytes.NewReader(body))
		if err != nil {
			continue
		}
		if ct := r.Header.Get("Content-Type"); ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := rt.proxyClient.Do(req)
		if err != nil {
			rt.proxyFailovers.Add(1)
			continue
		}
		rt.proxied.Add(1)
		copyResponse(w, resp)
		return
	}
	httpapi.WriteError(w, ErrNoBackend)
}

// copyResponse relays a backend's answer: status, Content-Type and any
// Retry-After hint, then the body.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	if _, err := io.Copy(w, resp.Body); err != nil {
		// The client went away mid-relay; nothing to answer.
		return
	}
}
