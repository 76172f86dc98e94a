package serve

import (
	"strconv"
	"time"

	"repro/internal/metrics"
)

// Metric family names the serving layer exposes when Options.Metrics is
// set. Exported as constants so the canary controller and the
// conformance tests address the same families the instrumentation
// registers, instead of re-typing strings that could drift.
const (
	// MetricRequestLatency is the per-model end-to-end request latency
	// histogram (queueing + batching delay + inference), in seconds,
	// labelled model="name@version". Prometheus derives p50/p95/p99 with
	// histogram_quantile; the canary controller reads the same buckets.
	MetricRequestLatency = "repro_request_latency_seconds"
	// MetricBatchSize is the dispatched-batch-size histogram per model.
	MetricBatchSize = "repro_batch_size"
	// MetricBatchFill is a gauge of the last dispatched batch's fill
	// ratio (size / MaxBatch).
	MetricBatchFill = "repro_batch_fill"
	// MetricQueueDepth is a gauge of requests admitted but not yet
	// pulled into a batch.
	MetricQueueDepth = "repro_queue_depth"
	// MetricRequests / MetricCompleted / MetricShed are the collector's
	// request counters (see Stats); Shed counts SLO/deadline sheds by
	// the batch workers, so the family carries reason="slo".
	MetricRequests  = "repro_requests_total"
	MetricCompleted = "repro_completed_total"
	MetricShed      = "repro_shed_total"
	// MetricCacheHits / MetricCacheMisses are per-shard cache counters,
	// labelled model + shard; MetricCacheEntries is the per-model entry
	// count gauge. All three read the same per-shard counters Stats
	// aggregates, which is what keeps /stats and /metrics agreeing.
	MetricCacheHits    = "repro_cache_hits_total"
	MetricCacheMisses  = "repro_cache_misses_total"
	MetricCacheEntries = "repro_cache_entries"
	// MetricWorkers is the configured replica count per model.
	MetricWorkers = "repro_workers"
)

// serverMetrics is one Server's registered instrumentation. The stored
// instruments (latency and batch-size histograms, batch-fill gauge) are
// written by the worker hot path with single atomic operations; the
// counter families are callback-backed, reading the same collector and
// cache-shard counters Stats snapshots, so the two surfaces can never
// drift apart. A nil *serverMetrics (metrics disabled) is a valid
// receiver everywhere — the hot path pays one nil check.
type serverMetrics struct {
	reg      *metrics.Registry
	latency  *metrics.Histogram
	batch    *metrics.Histogram
	fill     *metrics.Gauge
	maxBatch float64

	// owned lists every (family, labels) this server registered, for
	// unregistration on Close — a retired model's callbacks must not be
	// scraped forever.
	owned [][]string
}

// newServerMetrics registers the server's families with r. Registration
// allocates; it runs once per served model, never per request.
func newServerMetrics(r *metrics.Registry, s *Server) *serverMetrics {
	id := s.id
	m := &serverMetrics{reg: r, maxBatch: float64(s.opts.MaxBatch)}
	lbl := func(name string, labels ...string) []string {
		m.owned = append(m.owned, append([]string{name}, labels...))
		return labels
	}
	m.latency = r.Histogram(MetricRequestLatency, "End-to-end request latency (queueing + batching + inference) in seconds.",
		metrics.LatencyBuckets, lbl(MetricRequestLatency, "model", id)...)
	m.batch = r.Histogram(MetricBatchSize, "Dispatched batch sizes.",
		metrics.SizeBuckets, lbl(MetricBatchSize, "model", id)...)
	m.fill = r.Gauge(MetricBatchFill, "Fill ratio (size/MaxBatch) of the most recently dispatched batch.",
		lbl(MetricBatchFill, "model", id)...)
	r.GaugeFunc(MetricQueueDepth, "Requests admitted to the batch queue but not yet dispatched.",
		func() float64 { return float64(s.queued.Load()) }, lbl(MetricQueueDepth, "model", id)...)
	r.GaugeFunc(MetricWorkers, "Configured model replicas.",
		func() float64 { return float64(s.opts.Workers) }, lbl(MetricWorkers, "model", id)...)
	c := &s.stats
	r.CounterFunc(MetricRequests, "Accepted Infer calls (cache hits + queue admissions).",
		c.requestsTotal, lbl(MetricRequests, "model", id)...)
	r.CounterFunc(MetricCompleted, "Requests answered by a model forward pass.",
		c.completedTotal, lbl(MetricCompleted, "model", id)...)
	r.CounterFunc(MetricShed, "Admitted requests dropped unexecuted because they were past their SLO or context deadline.",
		c.shedTotal, lbl(MetricShed, "model", id, "reason", "slo")...)
	if s.cache != nil {
		for i := range s.cache.shards {
			sh := &s.cache.shards[i]
			shard := strconv.Itoa(i)
			r.CounterFunc(MetricCacheHits, "Result-cache hits per shard.",
				func() float64 { h, _, _ := sh.counts(); return float64(h) },
				lbl(MetricCacheHits, "model", id, "shard", shard)...)
			r.CounterFunc(MetricCacheMisses, "Result-cache misses per shard.",
				func() float64 { _, mi, _ := sh.counts(); return float64(mi) },
				lbl(MetricCacheMisses, "model", id, "shard", shard)...)
		}
		cache := s.cache
		r.GaugeFunc(MetricCacheEntries, "Cached results currently held.",
			func() float64 { _, _, n := cache.counters(); return float64(n) },
			lbl(MetricCacheEntries, "model", id)...)
	}
	return m
}

// observeBatch records one dispatched batch: its size, fill ratio and
// every request's latency. Atomic stores and adds only — the worker's
// steady state stays allocation-free with metrics enabled.
func (m *serverMetrics) observeBatch(n int, lats []time.Duration) {
	if m == nil {
		return
	}
	m.batch.Observe(float64(n))
	m.fill.Set(float64(n) / m.maxBatch)
	for _, l := range lats {
		m.latency.Observe(l.Seconds())
	}
}

// unregister removes every series this server registered.
func (m *serverMetrics) unregister() {
	if m == nil {
		return
	}
	for _, o := range m.owned {
		m.reg.Unregister(o[0], o[1:]...)
	}
}
