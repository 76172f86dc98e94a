package serve

import (
	"sort"
	"sync"
	"time"
)

// latencyWindow is how many recent request latencies are retained for the
// mean/P95 figures in Stats. A bounded window keeps Stats O(1) in memory
// under unbounded traffic while still tracking current behaviour.
const latencyWindow = 1024

// Stats is a point-in-time snapshot of the server's counters, the numbers
// the /stats endpoint and the README's results table report. Latencies are
// in microseconds to match the paper's tables and cover the full request
// path (queueing + batching delay + inference), measured over a sliding
// window of the most recent requests.
type Stats struct {
	// Requests is the total number of Infer calls accepted: answered
	// from the cache or admitted to the batch queue. Rejected calls
	// (closed server, bad shape) and submissions cancelled before
	// admission are not counted.
	Requests uint64 `json:"requests"`
	// Completed is the number of requests answered by a model forward
	// pass (cache hits are not included).
	Completed uint64 `json:"completed"`
	// Shed is the number of admitted requests the batch scheduler dropped
	// unexecuted because they were already past their SLO or context
	// deadline (answered with a typed overload error; see Options.SLO).
	Shed uint64 `json:"shed"`
	// CacheHits and CacheMisses count result-cache lookups; both are zero
	// when the cache is disabled.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// CacheEntries is the current number of cached results.
	CacheEntries int `json:"cache_entries"`
	// Batches is the number of batches dispatched to workers.
	Batches uint64 `json:"batches"`
	// MeanBatch is the mean dispatched batch size; MaxBatch is the
	// largest batch ever dispatched (never exceeds Config.MaxBatch).
	MeanBatch float64 `json:"mean_batch"`
	MaxBatch  int     `json:"max_batch"`
	// MeanLatencyUS and P95LatencyUS are microsecond latencies over the
	// recent-request window.
	MeanLatencyUS float64 `json:"mean_latency_us"`
	P95LatencyUS  float64 `json:"p95_latency_us"`
	// Workers is the configured replica count.
	Workers int `json:"workers"`
}

// collector accumulates the mutable counters behind Stats. The cache
// counters live in resultCache's shards (each under its shard lock) and
// are aggregated per shard; see Server.Stats.
type collector struct {
	mu           sync.Mutex
	requests     uint64
	completed    uint64
	shed         uint64
	batches      uint64
	batchSizeSum uint64
	maxBatch     int
	latencies    [latencyWindow]time.Duration
	latIdx       int
	latCount     int
}

// request counts one accepted call before its cache lookup runs, so cache
// counters can never outrun Requests.
//
//repro:noalloc
func (c *collector) request() {
	c.mu.Lock()
	c.requests++
	c.mu.Unlock()
}

// admit counts one request entering the batch queue; unadmit reverses it
// for a submission cancelled before the scheduler accepted it.
//
//repro:noalloc
func (c *collector) admit() {
	c.mu.Lock()
	c.requests++
	c.mu.Unlock()
}

//repro:noalloc
func (c *collector) unadmit() {
	c.mu.Lock()
	c.requests--
	c.mu.Unlock()
}

// shedN records n requests dropped unexecuted by the deadline-aware
// scheduler.
func (c *collector) shedN(n int) {
	c.mu.Lock()
	c.shed += uint64(n)
	c.mu.Unlock()
}

// batchDone records one dispatched batch and its per-request latencies
// under a single lock acquisition, keeping the stats overhead per request
// negligible on the hot path.
func (c *collector) batchDone(size int, lats []time.Duration) {
	c.mu.Lock()
	c.batches++
	c.batchSizeSum += uint64(size)
	if size > c.maxBatch {
		c.maxBatch = size
	}
	for _, lat := range lats {
		c.completed++
		c.latencies[c.latIdx] = lat
		c.latIdx = (c.latIdx + 1) % latencyWindow
		if c.latCount < latencyWindow {
			c.latCount++
		}
	}
	c.mu.Unlock()
}

// requestsTotal / completedTotal / shedTotal expose individual counters
// for the callback-backed /metrics series. They read the same fields
// snapshot reads, under the same lock — the mechanism that keeps the
// /stats JSON and the Prometheus exposition reporting one set of numbers.
func (c *collector) requestsTotal() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return float64(c.requests)
}

func (c *collector) completedTotal() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return float64(c.completed)
}

func (c *collector) shedTotal() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return float64(c.shed)
}

// snapshot assembles a Stats from the counters.
func (c *collector) snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Requests:  c.requests,
		Completed: c.completed,
		Shed:      c.shed,
		Batches:   c.batches,
		MaxBatch:  c.maxBatch,
	}
	if c.batches > 0 {
		s.MeanBatch = float64(c.batchSizeSum) / float64(c.batches)
	}
	if c.latCount > 0 {
		window := make([]time.Duration, c.latCount)
		copy(window, c.latencies[:c.latCount])
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		var sum time.Duration
		for _, l := range window {
			sum += l
		}
		s.MeanLatencyUS = float64(sum.Microseconds()) / float64(len(window))
		s.P95LatencyUS = float64(window[len(window)*95/100].Microseconds())
	}
	return s
}
