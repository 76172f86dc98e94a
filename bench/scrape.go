package main

import (
	"fmt"
	"math"
	"net/http"

	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/serve"
)

// The binaries already count what happens inside them (/metrics). A
// traced run scrapes them at every window boundary and reports the
// before/after deltas — the server-side view of the same interval the
// generator measured, with no instrumentation added to the program.

func fetchScrape(baseURL string) (*metrics.Scrape, error) {
	resp, err := probeClient.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", baseURL, resp.StatusCode)
	}
	return metrics.ParseText(resp.Body)
}

// servedModel is the label every workload's model registers under.
const servedModel = "arch1@v1"

// scrapeMetrics reduces a run's boundary scrapes (nServes serve processes
// first, then the router if any) to the scraped per-layer metrics.
// Counters are last minus first; gauges are the mean over boundaries.
// attempted is the generator's op count, the denominator of shed_ratio;
// maxBatch is the servers' batch cap, the denominator of batch_fill.
func scrapeMetrics(bounds [][]*metrics.Scrape, nServes int, attempted int64, maxBatch int) map[string]float64 {
	first, last := bounds[0], bounds[len(bounds)-1]
	delta := func(i int, name string, labels ...string) float64 {
		return last[i].Sum(name, labels...) - first[i].Sum(name, labels...)
	}
	gaugeMean := func(name string, labels ...string) float64 {
		total := 0.0
		for _, b := range bounds {
			for i := 0; i < nServes; i++ {
				total += b[i].Sum(name, labels...)
			}
		}
		return total / float64(len(bounds))
	}
	var batches, batched, hits, misses, streamShed, admitShed float64
	var lat metrics.HistSnapshot
	for i := 0; i < nServes; i++ {
		if b1, ok := last[i].Histogram(serve.MetricBatchSize, "model", servedModel); ok {
			b0, _ := first[i].Histogram(serve.MetricBatchSize, "model", servedModel)
			d := b1.Sub(b0)
			batches += float64(d.Count())
			batched += d.Sum
		}
		if l1, ok := last[i].Histogram(serve.MetricRequestLatency, "model", servedModel); ok {
			l0, _ := first[i].Histogram(serve.MetricRequestLatency, "model", servedModel)
			d := l1.Sub(l0)
			if lat.Counts == nil {
				lat = d
			} else {
				for j := range d.Counts {
					lat.Counts[j] += d.Counts[j]
				}
				lat.Sum += d.Sum
			}
		}
		hits += delta(i, serve.MetricCacheHits, "model", servedModel)
		misses += delta(i, serve.MetricCacheMisses, "model", servedModel)
		streamShed += delta(i, "repro_stream_shed_total")
		admitShed += delta(i, "repro_admission_shed_total")
	}
	out := map[string]float64{
		"serve.mean_batch":            batched / math.Max(batches, 1),
		"serve.batch_fill":            batched / math.Max(batches, 1) / float64(maxBatch),
		"serve.queue_depth_mean":      gaugeMean(serve.MetricQueueDepth, "model", servedModel),
		"serve.cache_hit_ratio":       hits / math.Max(hits+misses, 1),
		"serve.server_latency_p50_us": lat.Quantile(0.5) * 1e6,
		"admission.shed_ratio":        admitShed / math.Max(float64(attempted), 1),
		"stream.pipeline_depth_mean":  gaugeMean("repro_stream_pipeline_depth"),
		"stream.shed_total":           streamShed,
		"router.retries":              0,
		"router.no_backend":           0,
		"router.backend_imbalance":    1,
		"router.breaker_opens":        0,
	}
	if len(first) > nServes {
		r := nServes
		out["router.retries"] = delta(r, router.MetricRetries)
		out["router.no_backend"] = delta(r, router.MetricNoBackend)
		lo, hi := math.Inf(1), 0.0
		for _, s := range last[r].Series(router.MetricBackendRequests) {
			addr := s.Labels["backend"]
			d := s.Value - first[r].Sum(router.MetricBackendRequests, "backend", addr)
			lo, hi = math.Min(lo, d), math.Max(hi, d)
		}
		if lo > 0 {
			out["router.backend_imbalance"] = hi / lo
		}
		opens := 0.0
		for _, b := range bounds {
			for _, s := range b[r].Series(router.MetricBreakerState) {
				if s.Value != 0 {
					opens++
				}
			}
		}
		out["router.breaker_opens"] = opens
	}
	return out
}
