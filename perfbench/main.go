// Command perfbench is the repository's benchmark. It builds a simulated
// fleet on one virtual clock, runs one workload against it for a fixed
// wall time, checks every output, and prints the metrics BENCHMARK.json
// names. README.md explains the workloads and what each metric predicts.
//
//	go build -o perfbench . && ./perfbench --workload backbone-churn --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The lines
// before it carry the run's metadata and the workload's own named
// metrics with their sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// setups is how many times a run builds the fleet; setup_s is the median.
const setups = 3

// tailQ is the percentile op_tail_ms reports. Every workload has well
// over ten samples beyond it; fbnet-read's p99, which the program's GC
// stalls dominate, is printed as read_p99_us beside it.
const tailQ = 0.9

// namedMetric is one of the workload's own end-to-end figures, printed
// before the result line with its sample count.
type namedMetric struct {
	name  string
	value float64
	unit  string
	n     int
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "wall seconds the measured loop runs")
	traceFlag := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	m := collectMeta(root, *name, *seed, *seconds, *traceFlag == 1)
	steal := markSteal()
	rc, err := execute(wl, fullShape, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	m.StealS = steal.stolen()
	res := rc.result()
	out := filepath.Join(root, ".bench_build", "results")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	base := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traceFlag))
	if rc.trace {
		if err := writeSpans(base+".spans.json", m, rc.tr.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	if err := writeReport(base+".json", m, rc, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, m, rc, res)
	return 0
}

// execute builds the fleet setups times, then runs the workload's
// measured loop on the last one.
func execute(wl workload, sh shape, seed int64, seconds time.Duration, trace bool) (*runCtx, error) {
	rc := &runCtx{seed: seed, seconds: seconds, trace: trace, tr: newTracer(trace, time.Now()), acc: map[string]float64{}, layer: map[string]float64{}}
	var times []float64
	for i := 0; i < setups; i++ {
		if rc.w != nil {
			rc.w.close()
			rc.w = nil
			runtime.GC()
		}
		t0, steal := time.Now(), markSteal()
		w, err := buildWorld(sh, wl.service, rc.tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds()*steal.share())
		rc.w = w
	}
	defer rc.w.close()
	rc.tr.on = false // only set-up and measured ops are traced
	rc.setupS = median(times)
	rc.setupN = len(times)
	if err := wl.run(rc); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}
	rc.heapMB = liveHeapMB()
	if rc.attempted == 0 {
		return nil, fmt.Errorf("%s: no op completed", wl.name)
	}
	if trace {
		rc.layerMetrics()
		if e := rc.layer["trace.sum_error_pct"]; e > sumTolerancePct {
			rc.failed++
			rc.problem(fmt.Errorf("span self times miss their op by %.2f%%, over the %.1f%% tolerance", e, sumTolerancePct))
		}
	}
	rc.name("steal_share", 1-rc.share, "ratio", 1)
	rc.name("setup_s", rc.setupS, "s", rc.setupN)
	rc.name("failed_ratio", float64(rc.failed)/float64(rc.attempted), "ratio", rc.attempted)
	rc.name("live_heap_mb", rc.heapMB, "MB", 1)
	return rc, nil
}

// result assembles the final line: end-to-end metrics untraced, per-layer
// metrics traced.
func (rc *runCtx) result() result {
	res := result{Correct: rc.failed == 0, Attempted: rc.attempted, Failed: rc.failed, Metrics: map[string]metricValue{}}
	if rc.trace {
		for _, d := range perLayer {
			res.Metrics[d.name] = metricValue{Value: rc.layer[d.name], Unit: d.unit}
		}
		return res
	}
	res.Metrics["setup_s"] = metricValue{rc.setupS, "s"}
	res.Metrics["op_p50_ms"] = metricValue{rc.pct(rc.lat, 0.5) * rc.share, "ms"}
	res.Metrics["op_tail_ms"] = metricValue{rc.pct(rc.lat, tailQ) * rc.share, "ms"}
	res.Metrics["ops_per_s"] = metricValue{rc.throughput, "1/s"}
	res.Metrics["ok_ratio"] = metricValue{1 - float64(rc.failed)/float64(rc.attempted), "ratio"}
	res.Metrics["live_heap_mb"] = metricValue{rc.heapMB, "MB"}
	return res
}

func printReport(w io.Writer, m meta, rc *runCtx, res result) {
	mb, _ := json.Marshal(m)
	fmt.Fprintf(w, "# meta %s\n", mb)
	for _, nm := range rc.named {
		fmt.Fprintf(w, "# %-28s %14.4f %-6s n=%d\n", nm.name, nm.value, nm.unit, nm.n)
	}
	for _, p := range rc.problems {
		fmt.Fprintf(w, "# check failed: %s\n", p)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

// writeReport saves everything the run measured, with its metadata.
func writeReport(path string, m meta, rc *runCtx, res result) error {
	named := map[string]any{}
	for _, nm := range rc.named {
		named[nm.name] = map[string]any{"value": nm.value, "unit": nm.unit, "n": nm.n}
	}
	b, err := json.MarshalIndent(map[string]any{
		"meta": m, "result": res, "named": named, "problems": rc.problems,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
