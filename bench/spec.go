package main

import "time"

// This file is the benchmark's vocabulary: the workloads and every metric
// it prints, with units and directions. BENCHMARK.json at the repo root
// declares the same names (a test pins the two together); the bounds live
// there.

type workloadSpec struct {
	name string
	// limit is the latency an op must meet to count in
	// client.within_limit_ratio.
	limit  time.Duration
	spawns bool // drives the real binaries rather than running in-process
	open   bool // open loop: the schedule, not the system, sets the rate
	// windows is how many equal windows the measured time is cut into:
	// as many as the op rate allows while each still holds hundreds of
	// ops, because the shorter a window, the likelier it is undisturbed.
	windows int
	// slots, when set, cuts each window into that many slots for counting
	// throughput alone: the host takes a core away for milliseconds at a
	// time, and a single goroutine's op rate is read off the slots it left
	// alone. Multi-process workloads gain nothing from it (README).
	slots int
	why   string
}

const (
	edgeWindows    = 400 // 37.5 ms at 15 s: thousands of images each
	edgeSlots      = 10  // 3.75 ms: ≥ 60 images each even fixed-point
	servingWindows = 40  // 375 ms: ≥ 370 ops each, and ≥ 35 CPU ticks of the servers
)

var workloadSpecs = []workloadSpec{
	{"edge_float_b1", 100 * time.Microsecond, false, false, edgeWindows, edgeSlots,
		"the paper's deployment: Arch-1 compiled Float64Split, one image at a time in one goroutine; only fft/circulant/program run, at batch 1"},
	{"edge_fixed_b1", 500 * time.Microsecond, false, false, edgeWindows, edgeSlots,
		"same image stream through Int16Spectral(12,12), the paper's fixed-point build: time-domain int16 MAC instead of the FFT path"},
	{"stream_closed", 5 * time.Millisecond, true, false, servingWindows, 0,
		"one cmd/serve over RPS2, 2 connections x 16 closed-loop callers, cache bypassed: saturation throughput of batcher + stream framing"},
	{"fleet_open", 5 * time.Millisecond, true, true, servingWindows, 0,
		"cmd/router -> 2 x cmd/serve, open-loop Poisson 6000 req/s timed from scheduled start: prices the router hop and batch-hold latency"},
	{"http_app_mix", 20 * time.Millisecond, true, false, servingWindows, 0,
		"cmd/serve -embed over HTTP/JSON, sessions of embed + search + 2 cached infers with 10% upserts: JSON codec, LRU, embed and vector tiers"},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees; the same names on every
// workload, printed by untraced runs.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "ops/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
}

// perLayer is the traced run's output: the ladder (one serial or
// saturated rung per layer boundary, identical on every workload), the
// scraped server-side counters, and the generator's own audit.
var perLayer = []metricSpec{
	{"fft.real_fwdinv_ns_n64", "ns", "lower"},

	{"circulant.mulbatch_us_b1", "us", "lower"},
	{"circulant.mulbatch_us_b16", "us", "lower"},

	{"program.compile_ms", "ms", "lower"},
	{"program.float_run_us_b1", "us", "lower"},
	{"program.float_run_us_b16", "us", "lower"},
	{"program.fixed_run_us_b1", "us", "lower"},
	{"program.fixed_run_us_b16", "us", "lower"},
	{"program.dense_run_us_b16", "us", "lower"},
	{"program.fft_vs_dense_speedup_b16", "ratio", "higher"},
	{"program.arch2_float_run_us_b1", "us", "lower"},
	{"program.arch3_float_run_ms_b1", "ms", "lower"},
	{"program.allocs_per_run", "count", "lower"},
	{"program.ops_per_image_arch1", "count", "lower"},
	{"program.bytes_per_image_arch1", "bytes", "lower"},

	{"engine.bundle_load_ms", "ms", "lower"},
	{"engine.bundle_bytes_arch1", "bytes", "lower"},
	{"engine.dense_equiv_bytes_arch1", "bytes", "lower"},

	{"serve.infer_serial_us", "us", "lower"},
	{"serve.self_us", "us", "lower"},
	{"serve.sat_rps", "1/s", "higher"},
	{"serve.mean_batch", "count", "higher"},
	{"serve.batch_fill", "ratio", "higher"},
	{"serve.queue_depth_mean", "count", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.server_latency_p50_us", "us", "lower"},

	{"registry.infer_serial_us", "us", "lower"},
	{"registry.self_us", "us", "lower"},

	{"admission.shed_ratio", "ratio", "lower"},

	{"stream.rtt_serial_us", "us", "lower"},
	{"stream.self_us", "us", "lower"},
	{"stream.sat_rps_1conn", "1/s", "higher"},
	{"stream.pipeline_depth_mean", "count", "lower"},
	{"stream.shed_total", "count", "lower"},

	{"router.hop_serial_us", "us", "lower"},
	{"router.self_us", "us", "lower"},
	{"router.sat_rps", "1/s", "higher"},
	{"router.retries", "count", "lower"},
	{"router.no_backend", "count", "lower"},
	{"router.backend_imbalance", "ratio", "lower"},
	{"router.breaker_opens", "count", "lower"},

	{"http.infer_wire_serial_us", "us", "lower"},
	{"http.infer_json_serial_us", "us", "lower"},
	{"http.json_self_us", "us", "lower"},
	{"http.self_us", "us", "lower"},

	{"embed.http_serial_us", "us", "lower"},
	{"embed.dim", "count", "lower"},

	{"vector.search_brute_us", "us", "lower"},
	{"vector.search_int8_us", "us", "lower"},
	{"vector.search_ann_us", "us", "lower"},
	{"vector.recall_at_10_ann", "ratio", "higher"},
	{"vector.upsert_us_batch8", "us", "lower"},
	{"vector.http_search_us", "us", "lower"},
	{"vector.http_upsert_us", "us", "lower"},

	{"client.latency_p95_us", "us", "lower"},
	{"client.latency_p99_us", "us", "lower"},
	{"client.sched_lateness_p99_us", "us", "lower"},
	{"client.cpu_share", "ratio", "lower"},
	{"client.within_limit_ratio", "ratio", "higher"},
	{"client.trace_overhead_ratio", "ratio", "higher"},
	{"client.p95_us_at_3000", "us", "lower"},
	{"client.p95_us_at_6000", "us", "lower"},
	{"client.p95_us_at_9000", "us", "lower"},
	{"client.p95_us_at_12000", "us", "lower"},
	{"client.max_rate_within_limit", "1/s", "higher"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}
