package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// -compare is the repeatability tool: it runs the full set twice on the
// same code (each set is -repeat runs per workload, on seeds seed,
// seed+1, …) and prints, for every (workload, end-to-end metric), both
// medians, their relative difference, each set's spread and the bound
// from BENCHMARK.json — the check the benchmark's acceptance applies.

// benchmarkFile is the part of BENCHMARK.json the tool reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method).
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}

// worseBy is how much worse b is than a, as a share of a, in the
// metric's own direction; negative means b is better.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func runCompare(o options) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -compare reads the bounds from BENCHMARK.json in the current directory:", err)
		return 2
	}
	fmt.Println("# " + hostLine())
	// sets[set][workload][metric] = one value per run
	var sets [2]map[string]map[string][]float64
	for set := range sets {
		sets[set] = map[string]map[string][]float64{}
		for _, w := range workloadSpecs {
			sets[set][w.name] = map[string][]float64{}
			for r := 0; r < o.repeat; r++ {
				res, err := runChild(o, w.name, o.seed+int64(r), 0, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 2
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d ops failed\n", w.name, o.seed+int64(r), res.Failed)
					return 1
				}
				for name, m := range res.Metrics {
					sets[set][w.name][name] = append(sets[set][w.name][name], m.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "set %d: %s done\n", set+1, w.name)
		}
	}
	fmt.Printf("%-14s %-17s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "B worse", "spreadA", "spreadB", "bound", "verdict")
	code := 0
	for _, w := range workloadSpecs {
		for _, d := range bf.EndToEnd {
			a, b := sets[0][w.name][d.Name], sets[1][w.name][d.Name]
			verdict := "ok"
			if !agree(a, b, d, o.repeat >= 4) {
				verdict = "EXCEEDS"
				code = 1
			}
			fmt.Printf("%-14s %-17s %14.4f %14.4f %+7.2f%% %7.2f%% %7.2f%% %5.0f%%  %s\n",
				w.name, d.Name, median(a), median(b), 100*worseBy(median(a), median(b), d.Better),
				100*spread(a), 100*spread(b), 100*d.Bound, verdict)
		}
	}
	return code
}

// agree reports whether two sets of runs of the same code repeat within
// the metric's bound: neither median may be worse than the other by more
// than the bound (whichever set happened to run in the noisier stretch),
// and, given enough runs for quartiles to mean something, neither set's
// own spread may exceed it. setup_s is gated on its medians only.
func agree(a, b []float64, d declaredMetric, gateSpread bool) bool {
	ma, mb := median(a), median(b)
	if max(worseBy(ma, mb, d.Better), worseBy(mb, ma, d.Better)) > d.Bound {
		return false
	}
	if d.Name == "setup_s" || !gateSpread {
		return true
	}
	return spread(a) <= d.Bound && spread(b) <= d.Bound
}
