package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// endToEnd and perLayer are the metrics BENCHMARK.json declares; the result
// line carries exactly these (end-to-end on untraced runs, per-layer on
// traced ones). Other figures a run measures are printed above it, among
// them serve.p90_ms: only serve-mix has the ten samples beyond p90 that
// make it a tail, so it is not declared.
var endToEnd = []string{
	"setup_s", "cold_s",
	"gups.serial", "gups.NaiveSSE", "gups.nuCATS", "gups.nuCORALS", "gups.dist",
	"serve.jobs_per_s", "serve.p50_ms",
	"peak_rss_mb",
}

var perLayer = []string{
	"grid.fill_s",
	"plan.tiles_s", "plan.deps_s", "plan.trav_s", "plan.tiles", "plan.dep_edges",
	"kernel.gups.3d-s1", "kernel.gups.2d-s2", "kernel.gups.3d-banded", "kernel.gbs_computed", "mem.stream_copy_gbs",
	"sched.ns_per_tile", "sched.parks", "sched.empty_polls", "sched.imbalance",
	"dist.scatter_s", "dist.run_s", "dist.halo_msgs", "dist.halo_bytes", "dist.barrier_wait_p50_us",
	"serve.queue_ms", "serve.run_ms", "serve.client_ms", "serve.retries_429", "serve.heap_kb_per_job",
	"trace.util.NaiveSSE", "trace.util.nuCATS", "trace.util.nuCORALS", "trace.util.serial",
	"trace.overhead_pct",
}

// declared returns the metrics the result line must carry, and an error
// naming any the run did not measure.
func declared(ms map[string]metric, traced bool) (map[string]metric, error) {
	names := endToEnd
	if traced {
		names = perLayer
	}
	out := make(map[string]metric, len(names))
	var missing []string
	for _, n := range names {
		m, ok := ms[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		out[n] = m
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

// finishTrace writes the benchmark's spans as Chrome trace JSON, validates
// the file, and prints each layer's self time.
func finishTrace(r *run) error {
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.outDir, "perfbench-"+r.workload+".spans.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := r.sp.writeChrome(w, map[int]string{0: "main", 1: "client 1", 2: "client 2"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := validateTrace(r, path); err != nil {
		return err
	}
	fmt.Println("self time by span (span time minus its child spans):")
	fmt.Printf("  %-22s %7s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, lt := range r.sp.selfTimes() {
		fmt.Printf("  %-22s %7d %12.6f %12.6f\n", lt.name, lt.count, lt.total.Seconds(), lt.self.Seconds())
	}
	if m, ok := r.metrics["trace.overhead_pct"]; ok {
		fmt.Printf("tracing overhead: %+.2f%% (traced against untraced median)\n", m.Value)
	}
	return nil
}

// runSpread runs the workload n times in child processes, seeds seed,
// seed+1, ..., and prints each metric's median, quartiles and range.
func runSpread(n int, workload string, seed int64, secs, traceFlag int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.Itoa(secs), "-trace", strconv.Itoa(traceFlag))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d (seed %d): %v\n", i+1, s, err)
			return 1
		}
		lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d: result line: %v\n", i+1, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: run %d (seed %d) failed its checks\n", i+1, s)
			return 1
		}
		// Every printed metric, declared or not: "  <name> <value> <unit>".
		for _, line := range lines[:len(lines)-1] {
			f := strings.Fields(line)
			if !strings.HasPrefix(line, "  ") || len(f) != 3 {
				continue
			}
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				continue
			}
			values[f[0]] = append(values[f[0]], v)
			units[f[0]] = f[2]
		}
		fmt.Fprintf(os.Stderr, "perfbench: run %d/%d (seed %d) done: %d operations, %d failed\n", i+1, n, s, res.Attempted, res.Failed)
	}
	printSpread(values, units)
	return 0
}

// printSpread prints one row per metric: median, quartiles, interquartile
// range as a share of the median, and min/max.
func printSpread(values map[string][]float64, units map[string]string) {
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-26s %-10s %3s %12s %12s %12s %8s %12s %12s\n", "metric", "unit", "n", "median", "q1", "q3", "iqr/med", "min", "max")
	for _, name := range names {
		xs := values[name]
		med := median(xs)
		q1, _, q3, ok := quartiles(xs)
		rel := "-"
		if ok && med != 0 {
			rel = fmt.Sprintf("%.4f", (q3-q1)/math.Abs(med))
		}
		s := sortedCopy(xs)
		fmt.Fprintf(&b, "%-26s %-10s %3d %12.6g %12.6g %12.6g %8s %12.6g %12.6g\n", name, units[name], len(xs), med, q1, q3, rel, s[0], s[len(s)-1])
	}
	fmt.Print(b.String())
}
