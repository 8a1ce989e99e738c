// Command perfbench is the repository benchmark. It runs one named
// workload against the nustencil library, its job server and its layer
// packages, checks the outputs, and prints every metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end figures, measured with
// tracing off. With -trace 1 the workload runs with tracing on, probes each
// layer, and reports the per-layer figures; the benchmark's own spans are
// written as Chrome trace JSON, and each span's self time and the tracing
// overhead are printed.
//
// Usage:
//
//	perfbench -workload large-3d|tiles-2d|serve-mix -seed N -seconds S -trace 0|1
//	perfbench -workload W -spread N [-seconds S] [-trace 0|1]
//
// See README.md for the workloads and what each metric should move.
package main

import (
	"encoding/json"

	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's outcome: the metrics, and how many operations
// (Executes, jobs, checks) were attempted and how many failed.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one benchmark run's settings and accumulates its result.
type run struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	inject   string
	outDir   string

	sp       *spans
	metrics  map[string]metric
	attempts int
	failures int
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted operation, and a failure when err is non-nil.
func (r *run) op(err error) bool {
	r.attempts++
	if err != nil {
		r.failures++
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
		return false
	}
	return true
}

// injections name the faults -inject plants, so the checks can be shown to
// fail: a perturbed output cell, a wrong update count, a job left un-done.
var injections = []string{"cell", "updates", "undone"}

var workloads = map[string]func(*run) error{
	"large-3d":  func(r *run) error { return runSolverWorkload(r, large3D) },
	"tiles-2d":  func(r *run) error { return runSolverWorkload(r, tiles2D) },
	"serve-mix": runServeMix,
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: large-3d, tiles-2d or serve-mix")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	secs := fs.Int("seconds", 20, "how long the measured part of the run lasts")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spread := fs.Int("spread", 0, "when positive, run the workload this many times (seeds seed, seed+1, ...) in child processes and print each metric's median, quartiles and range")
	inject := fs.String("inject", "", "plant a fault the checks must catch: "+strings.Join(injections, ", "))
	outDir := fs.String("out", ".bench_build", "directory for the span and execution trace files of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	body, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want large-3d, tiles-2d or serve-mix)\n", *workload)
		return 2
	}
	if *secs < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *inject != "" && !contains(injections, *inject) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -inject %q (want one of %s)\n", *inject, strings.Join(injections, ", "))
		return 2
	}
	if *spread > 0 {
		return runSpread(*spread, *workload, *seed, *secs, *traceFlag)
	}

	r := &run{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*secs) * time.Second,
		traced:   *traceFlag == 1,
		inject:   *inject,
		outDir:   *outDir,
		metrics:  map[string]metric{},
	}
	if r.traced {
		r.sp = newSpans()
	}
	if err := body(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if r.traced {
		if err := finishTrace(r); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	} else {
		r.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	printMetrics(r.metrics)
	out, err := declared(r.metrics, r.traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res := result{
		Correct:   r.failures == 0,
		Attempted: r.attempts,
		Failed:    r.failures,
		Metrics:   out,
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed their checks\n", r.failures, r.attempts)
		return 1
	}
	return 0
}

// printMetrics prints one "name value unit" line per metric, sorted.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %16.9g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// peakRSSMB is the process's maximum resident set size, in MB (10^6 bytes).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}
