package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// A run is: prepare inputs and the oracle (not timed) → set the system up
// setupReps times and keep the last (setup_s is the median) → warm-up →
// equal measured windows (workloadSpec.windows of them), every metric
// computed per window.
//
// This box is a 2-vCPU guest that its host slows down — for slices of
// milliseconds and for stretches of seconds to a quarter of an hour —
// without reporting it as steal: between two sets of runs of the same
// code the median window of a run, and every quantile pooled over a run,
// moved by up to 70 %, the quiet end of the window distribution by a
// third of that (README, "Repeatability"). The disturbance only ever slows
// the system down, so the gated time metrics report their quiet-decile
// window: the 90th percentile window for a higher-is-better metric, the
// 10th for a lower-is-better one. What that hides — a stall that hits
// fewer than nine windows in ten — is what the whole-run quantiles
// (client.latency_p95_us, client.latency_p99_us) are printed for on every
// run; they cannot gate here. The open loop's throughput is completions
// over the whole measured span: per window it is the Poisson count of the
// arrivals, and its upper decile would measure the schedule, not the system.
//
// A traced run alternates untraced (even) and traced (odd) windows on the
// same live system, so the overhead ratio compares like with like.

const (
	quietDecile = 0.1
	// The servers' CPU time is read from /proc in 10 ms ticks, so their
	// cpu_us_per_op is computed over cpuSpans equal spans of the run,
	// however many windows each holds.
	cpuSpans    = 40
	scrapeEvery = 4
	warmup      = time.Second
)

// env is what a workload is handed to build itself: the run's knobs and
// the binaries it may spawn.
type env struct {
	runConfig
	serveBin string
	routeBin string
}

// instance is one prepared workload.
type instance interface {
	// setUp brings the system under test up from nothing; tearDown takes
	// it down again. The runner times setUp.
	setUp() error
	tearDown()
	setupReps() int
	// begin is called once with the timeline, just before the lanes
	// start; what it does falls into the warm-up and is not measured.
	begin(tl *timeline) error
	lanes() int
	// runLane generates lane id's load until the timeline ends.
	runLane(id int, l *lane, tl *timeline)
	// sutPIDs lists the system-under-test processes; empty means the
	// workload process itself is the system (the on-device workloads).
	sutPIDs() []int
	// scrapeURLs lists the base URLs of the system's /metrics endpoints,
	// the nServes cmd/serve processes first, then the router if there is
	// one; scraped only in traced runs.
	scrapeURLs() (urls []string, nServes int)
}

type timeline struct {
	t0     time.Time
	winLen time.Duration
	n      int
	// slots, when set, cuts every window into that many slots in which a
	// single-goroutine loop counts its completions, for throughput.
	slots  int
	open   bool // open loop: throughput is taken over the whole span
	traced bool // odd windows record spans
	scrape bool // read the servers' /metrics at every boundary
}

func (tl *timeline) slotLen() time.Duration { return tl.winLen / time.Duration(tl.slots) }

// window maps an instant to its measured window, -1 during warm-up and n
// past the end.
func (tl *timeline) window(t time.Time) int {
	d := t.Sub(tl.t0)
	if d < 0 {
		return -1
	}
	return min(int(d/tl.winLen), tl.n)
}

func (tl *timeline) end() time.Time { return tl.t0.Add(time.Duration(tl.n) * tl.winLen) }

// tracing reports whether an op starting at t records spans.
func (tl *timeline) tracing(t time.Time) bool {
	return tl.traced && tl.window(t)&1 == 1
}

// winStats is one window's accounting, shared by every lane (atomics).
type winStats struct {
	ok, failed atomic.Int64
	within     atomic.Int64 // ok and within the workload's latency limit
	lat        hist
}

// lane is one generator goroutine's handle on the run's accounting.
type lane struct {
	m     *measurement
	spans *spanRing // nil in untraced runs; private to the lane
	ops   uint64    // ops issued, for 1-in-N sampling

	slotStart time.Time // the open slot, see slot
	slotOps   int
}

var errDeadline = errors.New("the answer came after the per-op deadline")

// wrongAnswer is the error of an op the oracle rejected.
func wrongAnswer(what string, idx int) error {
	return fmt.Errorf("%s: wrong answer for pool input %d", what, idx)
}

// record files one finished op under the window its end falls in. An op
// has failed if err is set or it took longer than the deadline.
func (l *lane) record(tl *timeline, end time.Time, lat, late time.Duration, err error) {
	w := tl.window(end)
	if w < 0 || w >= tl.n {
		return
	}
	ws := &l.m.wins[w]
	l.m.late.record(int64(late))
	if err == nil && lat > l.m.deadline {
		err = errDeadline
	}
	if err != nil {
		ws.failed.Add(1)
		l.m.failOnce.Do(func() { l.m.firstFail = err })
		return
	}
	ws.ok.Add(1)
	ws.lat.record(int64(lat))
	if lat <= l.m.limit {
		ws.within.Add(1)
	}
}

// slot counts one good op of a single-goroutine closed loop, which ran
// from prev to done, towards the lane's current slot. A slot is closed by
// the first op that ends slotLen or more after it began, so its length is
// exact and its rate takes any value, not a multiple of 1/slotLen.
func (l *lane) slot(tl *timeline, prev, done time.Time) {
	if tl.window(prev) < 0 || tl.window(done) >= tl.n {
		return
	}
	if l.slotOps == 0 {
		l.slotStart = prev
	}
	l.slotOps++
	if d := done.Sub(l.slotStart); d >= tl.slotLen() {
		l.m.slotRates = append(l.m.slotRates, float64(l.slotOps)/d.Seconds())
		l.slotOps = 0
	}
}

// boundary is what the sampler reads at each window edge.
type boundary struct {
	sutCPU time.Duration
	genCPU time.Duration
	rss    int64
	scrape []*metrics.Scrape // traced runs only: serves…, then router
}

type measurement struct {
	tl        *timeline
	limit     time.Duration // the workload's latency limit
	deadline  time.Duration // an op slower than this has failed
	failOnce  sync.Once
	firstFail error // why the first failed op failed
	wins      []winStats
	slotRates []float64  // good ops/s of each closed slot; written by the one lane that counts slots
	late      hist       // generator lateness: send time minus due time
	bounds    []boundary // n+1
	rings     []*spanRing
	// nServes is how many serve processes lead each boundary's scrapes;
	// 0 means the workload process itself is the system under test.
	nServes int
}

func sampleBoundary(inst instance, scrape bool) (boundary, error) {
	b := boundary{genCPU: selfCPU()}
	pids := inst.sutPIDs()
	if len(pids) == 0 {
		b.sutCPU = b.genCPU
		rss, err := procPeakRSS(os.Getpid())
		if err != nil {
			return b, err
		}
		b.rss = rss
	}
	for _, pid := range pids {
		cpu, err := procCPU(pid)
		if err != nil {
			return b, err
		}
		rss, err := procPeakRSS(pid)
		if err != nil {
			return b, err
		}
		b.sutCPU += cpu
		b.rss += rss
	}
	if scrape {
		urls, _ := inst.scrapeURLs()
		for _, u := range urls {
			sc, err := fetchScrape(u)
			if err != nil {
				return b, err
			}
			b.scrape = append(b.scrape, sc)
		}
	}
	return b, nil
}

// measure runs the instance's lanes over the timeline and samples the
// system at every window boundary.
func measure(inst instance, tl *timeline, limit, deadline time.Duration) (*measurement, error) {
	_, nServes := inst.scrapeURLs()
	m := &measurement{tl: tl, limit: limit, deadline: deadline, wins: make([]winStats, tl.n), slotRates: make([]float64, 0, tl.n*tl.slots),
		bounds: make([]boundary, tl.n+1), nServes: nServes}
	lanes := make([]*lane, inst.lanes())
	for i := range lanes {
		lanes[i] = &lane{m: m}
		if tl.traced {
			lanes[i].spans = newSpanRing(i, tl.t0)
			m.rings = append(m.rings, lanes[i].spans)
		}
	}
	if err := inst.begin(tl); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	for i, l := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inst.runLane(i, l, tl)
		}()
	}
	var sampleErr error
	for k := 0; k <= tl.n; k++ {
		time.Sleep(time.Until(tl.t0.Add(time.Duration(k) * tl.winLen)))
		// Scraping costs the servers CPU: every scrapeEvery-th boundary and
		// the last are enough for deltas and gauge means.
		b, err := sampleBoundary(inst, tl.scrape && (k%scrapeEvery == 0 || k == tl.n))
		if err != nil && sampleErr == nil {
			sampleErr = fmt.Errorf("sampling the system at window %d: %w", k, err)
		}
		m.bounds[k] = b
	}
	wg.Wait()
	if sampleErr != nil {
		return nil, sampleErr
	}
	return m, nil
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quiet evaluates f on every window in which keep holds and returns the
// quiet-decile value: a tenth of the windows are better, in the metric's
// own direction. Windows without a single good op are skipped.
func (m *measurement) quiet(keep func(w int) bool, higherBetter bool, f func(w int) float64) float64 {
	var vals []float64
	for w := range m.wins {
		if keep(w) && m.wins[w].ok.Load() > 0 {
			vals = append(vals, f(w))
		}
	}
	return quietOf(vals, higherBetter)
}

func quietOf(vals []float64, higherBetter bool) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	sort.Float64s(vals)
	k := int(quietDecile * float64(len(vals)))
	if higherBetter {
		k = len(vals) - 1 - k
	}
	return vals[k]
}

func allWindows(int) bool { return true }

func (m *measurement) throughput(w int) float64 {
	return float64(m.wins[w].ok.Load()) / m.tl.winLen.Seconds()
}

// throughputPerS is good ops per second: over the whole measured span for
// the open loop, whose rate is set by the schedule; for a closed loop,
// whose rate is set by the system, the quiet-decile slot if the lane
// counted slots, else the quiet-decile window.
func (m *measurement) throughputPerS() float64 {
	switch {
	case m.tl.open:
		attempted, failed := m.totals()
		return float64(attempted-failed) / (time.Duration(m.tl.n) * m.tl.winLen).Seconds()
	case len(m.slotRates) > 0:
		return quietOf(append([]float64(nil), m.slotRates...), true)
	}
	return m.quiet(allWindows, true, m.throughput)
}

func us(ns float64) float64 { return ns / 1e3 }

// endToEndMetrics reduces a measurement to the user-facing numbers.
func (m *measurement) endToEndMetrics(setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":          setupS,
		"throughput_per_s": m.throughputPerS(),
		"latency_p50_us":   m.quiet(allWindows, false, func(w int) float64 { return us(m.wins[w].lat.quantile(0.50)) }),
		"cpu_us_per_op":    m.cpuPerOp(),
		"peak_rss_mb":      float64(m.bounds[m.tl.n].rss) / (1 << 20),
	}
}

// cpuPerOp is the quiet-decile CPU cost of an op: per window when the
// system is this process (getrusage is exact), over cpuSpans spans when it
// is spawned processes (/proc counts 10 ms ticks).
func (m *measurement) cpuPerOp() float64 {
	per := 1
	if m.nServes > 0 {
		per = max(m.tl.n/cpuSpans, 1)
	}
	var vals []float64
	for lo := 0; lo+per <= m.tl.n; lo += per {
		var ops int64
		for w := lo; w < lo+per; w++ {
			ops += m.wins[w].ok.Load()
		}
		if ops > 0 {
			vals = append(vals, us(float64(m.bounds[lo+per].sutCPU-m.bounds[lo].sutCPU))/float64(ops))
		}
	}
	return quietOf(vals, false)
}

func (m *measurement) totals() (attempted, failed int64) {
	for w := range m.wins {
		attempted += m.wins[w].ok.Load() + m.wins[w].failed.Load()
		failed += m.wins[w].failed.Load()
	}
	return attempted, failed
}

// clientMetrics audits the generator like a layer.
func (m *measurement) clientMetrics() map[string]float64 {
	var all hist
	var within int64
	for w := range m.wins {
		all.merge(&m.wins[w].lat)
		within += m.wins[w].within.Load()
	}
	attempted, _ := m.totals()
	first, last := m.bounds[0], m.bounds[m.tl.n]
	gen := float64(last.genCPU - first.genCPU)
	share := gen / (gen + float64(last.sutCPU-first.sutCPU))
	if m.nServes == 0 {
		// One process is both generator and system: the generator's share
		// is the loop time not spent inside the measured call.
		var inCall float64
		for w := range m.wins {
			inCall += m.wins[w].lat.sum()
		}
		share = 1 - inCall/float64(time.Duration(m.tl.n)*m.tl.winLen)
	}
	odd := func(w int) bool { return w&1 == 1 }
	even := func(w int) bool { return w&1 == 0 }
	return map[string]float64{
		"client.latency_p95_us":        us(all.quantile(0.95)),
		"client.latency_p99_us":        us(all.quantile(0.99)),
		"client.sched_lateness_p99_us": us(m.late.quantile(0.99)),
		"client.cpu_share":             share,
		"client.within_limit_ratio":    float64(within) / float64(max(attempted, 1)),
		"client.trace_overhead_ratio":  m.quiet(odd, true, m.throughput) / m.quiet(even, true, m.throughput),
	}
}

// runConfig is one invocation's knobs.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string        // child logs and trace files
	workDir  string        // scratch inside the checkout: model bundle; binaries go beside it
	deadline time.Duration // an op slower than this has failed
	corrupt  bool          // test hook: falsify expected answers
	// lenient skips the open-loop generator's keep-up check: the smoke
	// test runs beside other packages' tests and checks answers, not pace.
	lenient bool
}

// prepare builds the named workload's instance.
func prepare(name string, e *env) (instance, error) {
	switch name {
	case "edge_float_b1":
		return prepareEdge(e, false)
	case "edge_fixed_b1":
		return prepareEdge(e, true)
	case "stream_closed":
		return prepareStream(e, false)
	case "fleet_open":
		return prepareStream(e, true)
	case "http_app_mix":
		return prepareApp(e)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runWorkload executes one workload end to end and returns its result.
// Human-readable detail goes to logf; the caller prints the result line.
func runWorkload(cfg runConfig, logf func(format string, args ...any)) (*result, error) {
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	e := &env{runConfig: cfg}
	if spec.spawns || cfg.trace { // the ladder spawns its own topology
		var err error
		e.serveBin, e.routeBin, err = buildBinaries(filepath.Join(filepath.Dir(cfg.workDir), "bin"))
		if err != nil {
			return nil, err
		}
	}
	inst, err := prepare(cfg.workload, e)
	if err != nil {
		return nil, err
	}

	reps := inst.setupReps()
	if cfg.trace {
		reps = 1 // set-up time is an end-to-end metric; a traced run does not report it
	}
	var setups []float64
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			inst.tearDown()
		}
		// Every repetition starts from a collected heap, so that none is
		// timed with the collector clearing up after the one before.
		runtime.GC()
		start := time.Now()
		if err := inst.setUp(); err != nil {
			inst.tearDown()
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer inst.tearDown()
	// A check of the system that is not part of the load runs before the
	// timeline is laid out, so that it cannot eat into the windows.
	if c, ok := inst.(interface{ selfCheck() error }); ok {
		if err := c.selfCheck(); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
	}

	tl := &timeline{
		t0:     time.Now().Add(warmup),
		winLen: time.Duration(cfg.seconds * float64(time.Second) / float64(spec.windows)),
		n:      spec.windows,
		slots:  spec.slots,
		open:   spec.open,
		traced: cfg.trace,
		scrape: cfg.trace,
	}
	m, err := measure(inst, tl, spec.limit, cfg.deadline)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if v, ok := inst.(interface{ validate() error }); ok && !cfg.lenient {
		if err := v.validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, err)
		}
	}
	attempted, failed := m.totals()
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed inside the measured windows", cfg.workload)
	}

	if failed > 0 {
		logf("%d of %d ops failed; the first: %v", failed, attempted, m.firstFail)
	}

	values := m.endToEndMetrics(median(setups))
	specs := endToEnd
	// How noisy the box was: the spread of the windows beside the value reported.
	var thr []float64
	for w := range m.wins {
		thr = append(thr, m.throughput(w))
	}
	sort.Float64s(thr)
	logf("windows: %d x %v; throughput/s min %.0f, median %.0f, quiet decile %.0f, max %.0f",
		tl.n, tl.winLen, thr[0], median(thr), m.quiet(allWindows, true, m.throughput), thr[len(thr)-1])
	if !cfg.trace {
		// The generator's audit and the whole-run tail ride beside the
		// numbers they qualify.
		cm := m.clientMetrics()
		logf("whole run: latency p95 %.1f us, p99 %.1f us over %d ops; within %v: %.4f",
			cm["client.latency_p95_us"], cm["client.latency_p99_us"], attempted, spec.limit, cm["client.within_limit_ratio"])
		logf("generator: cpu_share %.3f, lateness p99 %.1f us", cm["client.cpu_share"], cm["client.sched_lateness_p99_us"])
	}
	if cfg.trace {
		path, err := writeTrace(cfg.outDir, cfg.workload, cfg.seed, m.rings)
		if err != nil {
			return nil, err
		}
		logf("spans written to %s", path)
		logf("end-to-end during the traced run (informational; gate on untraced runs):")
		for _, s := range endToEnd {
			logf("  %-18s %14.4f %s", s.name, values[s.name], s.unit)
		}
		inst.tearDown() // free the ports and the cores before the ladder
		values, err = tracedMetrics(e, m, logf)
		if err != nil {
			return nil, err
		}
		specs = perLayer
	}
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s has no value (%v)", cfg.workload, s.name, v)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	return res, nil
}
