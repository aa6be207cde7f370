// Command perfbench is the gbpolar repository benchmark. It runs one named
// workload from molecule file to E_pol for a fixed number of seconds,
// checks every output, and prints the workload's metrics by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 they are the per-layer metrics, timed around each call into
// a layer from outside the program. See README.md for the workloads, the
// metric definitions and how they relate.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload posescan --seed 7 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// scale multiplies every molecule size; 1 is the benchmark, the
	// package tests use small values for smoke runs.
	scale float64
	// workdir holds the run's input files; it is removed afterwards.
	workdir string
}

func main() {
	cfg := config{scale: 1}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measuring window in seconds")
	flag.IntVar(&trace, "trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "directory for the generated input files")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatalf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.traced = trace == 1
	runtime.GOMAXPROCS(workerThreads())

	res, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	printResult(os.Stdout, cfg, res)
}

// workerThreads is the thread count every workload runs with: the host's
// cores, capped at the two the baseline was measured on.
func workerThreads() int {
	return min(runtime.NumCPU(), 2)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// printResult writes one human-readable line per metric and note, then the
// JSON result as the last line.
func printResult(w io.Writer, cfg config, res *result) {
	fmt.Fprintf(w, "workload %s seed %d (%d evaluations, %d failed, error_rate %g)\n",
		cfg.workload, cfg.seed, res.Attempted, res.Failed, res.errorRate())
	for _, n := range res.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintln(w, string(b))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one invocation reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes explain the run to a human reader (failures, the tail
	// percentile used); they are printed before the JSON line.
	notes []string
}

func (r *result) errorRate() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func (r *result) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.Correct = false
		r.notes = append(r.notes, fmt.Sprintf("metric %s is not finite (%g); reported as 0", name, value))
		value = 0
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}
