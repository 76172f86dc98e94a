// Command bench is the repo's benchmark: five workloads — two on-device
// (the paper's Fig. 4 flow, float and fixed-point, one image at a time)
// and three against the real cmd/serve and cmd/router binaries — each
// checked against an interpreted-forward oracle, plus a traced run that
// prices every layer on a ladder. See README.md in this directory and
// BENCHMARK.json at the repo root.
//
//	go run ./bench                                  every workload, end-to-end metrics
//	go run ./bench -trace 1                         … then the traced run of each
//	go run ./bench -workload fleet_open -seed 7     one workload
//	go run ./bench -repeat 10 -compare              two sets of runs and their agreement
//
// A single-workload run prints one JSON object as its last line:
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}} — the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	// runSeconds is the measured length of every run, BENCHMARK.json's
	// run_seconds. It is a constant, not a knob: window and rung lengths
	// derive from it, so numbers taken at another length do not compare.
	runSeconds      = 15
	defaultDeadline = time.Second // an op slower than this has failed
	buildDir        = ".bench_build"
)

type options struct {
	workload string
	seed     int64
	trace    int
	out      string
	repeat   int
	compare  bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload name, or all (each in a fresh process)")
	fs.Int64Var(&o.seed, "seed", 1, "seeds the input pool, draw order, arrival gaps and session mix; the model is the same for every seed")
	// The driver's command line names the run length; it is accepted only
	// as a cross-check against the constant.
	seconds := fs.Float64("seconds", runSeconds, "measured seconds per workload; fixed, any other value is refused")
	fs.IntVar(&o.trace, "trace", 0, "1: traced run (spans, layer ladder, per-layer metrics); 0: end-to-end metrics")
	fs.StringVar(&o.out, "out", filepath.Join(buildDir, "out"), "directory for child logs and trace-<workload>.json")
	fs.IntVar(&o.repeat, "repeat", 1, "with -compare: runs per set, on seeds seed, seed+1, …")
	fs.BoolVar(&o.compare, "compare", false, "run the full set twice and report whether the two agree within the bounds of BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace %d: want 0 or 1", o.trace)
	}
	if *seconds != runSeconds {
		return o, fmt.Errorf("-seconds %v: the run length is fixed at %d s (BENCHMARK.json run_seconds)", *seconds, runSeconds)
	}
	if o.repeat < 1 {
		return o, fmt.Errorf("-repeat must be positive")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(run(o))
}

func run(o options) int {
	switch {
	case o.compare:
		return runCompare(o)
	case o.workload == "all":
		return runAll(o)
	}
	return runOne(runConfig{
		workload: o.workload, seed: o.seed, seconds: runSeconds, trace: o.trace == 1,
		outDir: o.out, workDir: filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid())),
		deadline: defaultDeadline,
	})
}

// runOne runs one workload in this process, prints its result line and
// returns the exit code: 1 if any op failed, 2 if the run itself did.
func runOne(cfg runConfig) int {
	logf := func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }
	logf("%s", hostLine())
	defer os.RemoveAll(cfg.workDir)
	res, err := runWorkload(cfg, logf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d ops failed the oracle, the status check or the deadline\n", cfg.workload, res.Failed, res.Attempted)
		return 1
	}
	return 0
}

// hostLine records what the numbers were taken on.
func hostLine() string {
	model := "unknown CPU"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				model = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d cpu=%q %s %s/%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// runChild re-executes this binary for one workload, so every workload
// starts from a fresh process (its memory numbers are its own). It echoes
// the child's commentary and returns its parsed result line.
func runChild(o options, workload string, seed int64, trace int, echo bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self,
		"-workload", workload, "-seed", fmt.Sprint(seed), "-trace", fmt.Sprint(trace), "-out", o.out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if echo {
		for _, l := range lines[:len(lines)-1] {
			fmt.Println(l)
		}
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return &res, nil
}

func printResult(workload string, specs []metricSpec, res *result) {
	fmt.Printf("%s: attempted %d, succeeded %d, failed %d, correct %v\n",
		workload, res.Attempted, res.Attempted-res.Failed, res.Failed, res.Correct)
	for _, s := range specs {
		m := res.Metrics[s.name]
		fmt.Printf("  %-34s %16.4f %-6s (%s is better)\n", s.name, m.Value, m.Unit, s.better)
	}
}

// runAll runs every workload, untraced and then (with -trace 1) traced.
func runAll(o options) int {
	fmt.Println("# " + hostLine())
	start := time.Now()
	code := 0
	summary := map[string]*result{}
	for _, w := range workloadSpecs {
		res, err := runChild(o, w.name, o.seed, 0, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		printResult(w.name, endToEnd, res)
		summary[w.name] = res
		if !res.Correct {
			code = 1
		}
		if o.trace == 1 {
			traced, err := runChild(o, w.name, o.seed, 1, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			printResult(w.name+" (traced)", perLayer, traced)
			if !traced.Correct {
				code = 1
			}
		}
	}
	fmt.Printf("# full set took %.1f s\n", time.Since(start).Seconds())
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	return code
}
