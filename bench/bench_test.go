package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	samples := make([]float64, 200_000)
	for i := range samples {
		// Log-normal around 300 µs with a long tail, like a latency.
		ns := math.Exp(rng.NormFloat64()*1.2 + math.Log(300e3))
		samples[i] = math.Floor(ns)
		h.record(int64(ns))
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.01, 0.5, 0.9, 0.95, 0.99, 0.999} {
		want := samples[int(math.Ceil(q*float64(len(samples))))-1]
		got := h.quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q%.3f: histogram %.0f ns, sorted slice %.0f ns, off by %.2f%%", q, got, want, 100*rel)
		}
	}
	var small hist
	for ns := int64(0); ns < 100; ns++ {
		small.record(ns)
	}
	if got := small.quantile(0.5); math.Abs(got-50) > 1 {
		t.Errorf("unit buckets: median of 0..99 = %v", got)
	}
	if got := new(hist).quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty histogram quantile = %v, want NaN", got)
	}
}

func take[T any](n int, next func() T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func TestSeedReplaysTheWorkload(t *testing.T) {
	streams := func(seed int64) string {
		return fmt.Sprint(
			cycleOrder(seed, edgePool)[:32],
			take(32, uniformDraws(seed, 3, servingPool)),
			take(32, arrivalGaps(seed, 0, fleetRate)),
			take(32, zipfDraws(seed, 1, appPool)),
			take(32, sessionPlan(seed, 1, appPool)),
			newPool(seed, 4, 8),
		)
	}
	if streams(7) != streams(7) {
		t.Error("the same seed produced different inputs, draws, gaps or sessions")
	}
	if streams(7) == streams(8) {
		t.Error("different seeds produced the same workload")
	}
	a, b := take(8, uniformDraws(7, 1, servingPool)), take(8, uniformDraws(7, 2, servingPool))
	if fmt.Sprint(a) == fmt.Sprint(b) {
		t.Error("two lanes of one seed drew the same sequence")
	}
	writes := 0
	for _, s := range take(100, sessionPlan(7, 0, appPool)) {
		if s.write {
			writes++
			if s.writeAt < 0 || s.writeAt+upsertBatch > appPool {
				t.Fatalf("write at %d leaves the pool", s.writeAt)
			}
		}
	}
	if writes != 100/writeEvery {
		t.Errorf("%d of 100 sessions write, want %d", writes, 100/writeEvery)
	}
}

func TestArrivalRate(t *testing.T) {
	const n = 200_000
	total := 0.0
	for _, g := range take(n, arrivalGaps(3, 0, fleetRate)) {
		total += g
	}
	if rate := n / total; math.Abs(rate-fleetRate)/fleetRate > 0.01 {
		t.Errorf("mean arrival rate %.1f/s, want %.0f/s within 1%%", rate, fleetRate)
	}
}

func TestZipfHeadMass(t *testing.T) {
	const draws = 400_000
	counts := make([]int, appPool)
	for _, idx := range take(draws, zipfDraws(5, 0, appPool)) {
		counts[idx]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	// P(rank k) ∝ (1+k)^-s over k in [0, n).
	norm, head := 0.0, 0.0
	for k := 0; k < appPool; k++ {
		p := math.Pow(float64(1+k), -zipfS)
		norm += p
		if k < 16 {
			head += p
		}
	}
	got := 0
	for _, c := range counts[:16] {
		got += c
	}
	if mass, want := float64(got)/draws, head/norm; math.Abs(mass-want) > 0.01 {
		t.Errorf("16 hottest inputs carry %.3f of the draws, want %.3f ± 0.01", mass, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1, 2 = %v, %v; want 0.75, 2.25", q1, q3)
	}
	if d := worseBy(100, 90, "higher"); d != 0.1 {
		t.Errorf("throughput 100 → 90 is worse by %v, want 0.1", d)
	}
	if d := worseBy(100, 90, "lower"); d != -0.1 {
		t.Errorf("latency 100 → 90 is worse by %v, want -0.1", d)
	}
}

// TestAgreeIsTwoSided: two sets disagree when either is worse than the
// other by more than the bound, whichever ran first.
func TestAgreeIsTwoSided(t *testing.T) {
	lat := declaredMetric{Name: "latency_p50_us", Better: "lower", Bound: 0.10}
	calm, busy := []float64{100, 101, 99, 100}, []float64{140, 141, 139, 140}
	if agree(calm, busy, lat, true) {
		t.Error("B 40% worse than A passed a 10% bound")
	}
	if agree(busy, calm, lat, true) {
		t.Error("A 40% worse than B passed a 10% bound")
	}
	if !agree(calm, []float64{104, 105, 103, 104}, lat, true) {
		t.Error("sets 4% apart failed a 10% bound")
	}
	wide := []float64{80, 100, 100, 120}
	if agree(wide, wide, lat, true) {
		t.Error("a set whose own spread exceeds the bound passed")
	}
	if !agree(wide, wide, declaredMetric{Name: "setup_s", Better: "lower", Bound: 0.10}, true) {
		t.Error("setup_s is gated on its medians only")
	}
}

// TestRunLengthIsFixed: the command line cannot change the measured
// length, so two sets of numbers always compare like with like.
func TestRunLengthIsFixed(t *testing.T) {
	if _, err := parseFlags([]string{"--workload", "fleet_open", "--seed", "3", "--seconds", strconv.Itoa(runSeconds), "--trace", "0"}); err != nil {
		t.Errorf("the driver's command line was refused: %v", err)
	}
	if _, err := parseFlags([]string{"-seconds", "5"}); err == nil {
		t.Error("-seconds 5 was accepted")
	}
	if _, err := parseFlags([]string{"-corrupt-oracle"}); err == nil {
		t.Error("the oracle test hook is reachable from the command line")
	}
}

// TestDeclaredNames pins BENCHMARK.json to the names, units and
// directions the program prints, and to the contract's own limits.
func TestDeclaredNames(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(bf.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads declared, %d implemented", len(bf.Workloads), len(workloadSpecs))
	}
	for i, w := range bf.Workloads {
		unique(w.Name)
		if w.Name != workloadSpecs[i].name {
			t.Errorf("workload %d is declared %q, implemented %q", i, w.Name, workloadSpecs[i].name)
		}
		if w.Why != workloadSpecs[i].why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why differs from spec.go, or is not one line of ≤ 200 characters", w.Name)
		}
	}
	same := func(kind string, declared []declaredMetric, printed []metricSpec) {
		if len(declared) != len(printed) {
			t.Fatalf("%s: %d metrics declared, %d printed", kind, len(declared), len(printed))
		}
		for i, d := range declared {
			unique(d.Name)
			p := printed[i]
			if d.Name != p.name || d.Unit != p.unit || d.Better != p.better {
				t.Errorf("%s metric %d: declared %+v, printed %+v", kind, i, d, p)
			}
			if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s metric %q: bad unit %q or direction %q", kind, d.Name, d.Unit, d.Better)
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	if bf.RunSeconds != runSeconds {
		t.Errorf("run_seconds is declared %d, the program measures %d", bf.RunSeconds, runSeconds)
	}
	var setup float64
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Bound
		}
	}
	for _, d := range bf.EndToEnd {
		if d.Bound > setup {
			t.Errorf("%s has bound %v, larger than setup_s's %v", d.Name, d.Bound, setup)
		}
	}
	for _, d := range bf.PerLayer {
		if d.Bound != 0 {
			t.Errorf("per-layer metric %s declares a bound", d.Name)
		}
	}
}

func testConfig(t *testing.T, workload string, seconds float64) runConfig {
	dir := t.TempDir()
	return runConfig{
		workload: workload, seed: 1, seconds: seconds,
		outDir: filepath.Join(dir, "out"), workDir: filepath.Join(dir, "run"),
		// The smoke runs share the machine with every other package's
		// tests: they check answers and clean-up, not pace.
		deadline: 10 * time.Second, lenient: true,
	}
}

func TestCorruptOracleFails(t *testing.T) {
	cfg := testConfig(t, "edge_float_b1", 0.25)
	res, err := runWorkload(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("honest oracle: %d of %d ops failed", res.Failed, res.Attempted)
	}
	cfg = testConfig(t, "edge_float_b1", 0.25)
	cfg.corrupt = true
	res, err = runWorkload(cfg, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("one falsified expected value went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	// The command turns an incorrect result into a non-zero exit.
	stdout := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	cfg = testConfig(t, "edge_float_b1", 0.25)
	cfg.corrupt = true
	code := runOne(cfg)
	os.Stdout = stdout
	devnull.Close()
	if code != 1 {
		t.Errorf("exit code %d for an incorrect run, want 1", code)
	}
}

// childrenOf lists live processes whose parent is pid.
func childrenOf(t *testing.T, pid int) []string {
	t.Helper()
	stats, err := filepath.Glob("/proc/[0-9]*/stat")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, path := range stats {
		data, err := os.ReadFile(path)
		if err != nil {
			continue // exited between the glob and the read
		}
		i := strings.LastIndexByte(string(data), ')')
		fields := strings.Fields(string(data[i+1:]))
		if i < 0 || len(fields) < 2 {
			continue
		}
		// fields: state ppid …; a zombie is a child still to be reaped.
		if ppid, _ := strconv.Atoi(fields[1]); ppid == pid {
			out = append(out, string(data[:i+1])+" "+fields[0])
		}
	}
	return out
}

func metricNames(res *result) []string {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func specNames(specs []metricSpec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs every workload for half a second against the real binaries
// and the traced run once: nothing may fail, the printed metric names
// must be the declared ones, and no child process may be left behind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns cmd/serve and cmd/router")
	}
	for _, w := range workloadSpecs {
		res, err := runWorkload(testConfig(t, w.name, 0.5), t.Logf)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
			t.Errorf("%s: %d of %d ops failed", w.name, res.Failed, res.Attempted)
		}
		if got, want := metricNames(res), specNames(endToEnd); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s printed %v, want %v", w.name, got, want)
		}
		for name, m := range res.Metrics {
			// In so short a run a CPU span is a couple of 10 ms ticks, so
			// the quietest one may have been charged none.
			if !(m.Value > 0) && name != "cpu_us_per_op" {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
			}
		}
	}
	cfg := testConfig(t, "stream_closed", 0.5)
	cfg.trace = true
	res, err := runWorkload(cfg, t.Logf)
	if err != nil {
		t.Fatalf("traced run: %v", err)
	}
	if res.Failed != 0 {
		t.Errorf("traced run: %d of %d ops failed", res.Failed, res.Attempted)
	}
	if got, want := metricNames(res), specNames(perLayer); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("traced run printed %v, want %v", got, want)
	}
	if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-stream_closed.json")); err != nil {
		t.Errorf("traced run wrote no span file: %v", err)
	}
	if left := childrenOf(t, os.Getpid()); len(left) > 0 {
		t.Errorf("child processes left behind: %v", left)
	}
}
