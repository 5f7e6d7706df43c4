package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/robotron-net/robotron/internal/reconcile"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// service puts the FBNet store behind the replicated RPC service.
	service bool
	// run warms up, calls rc.beginWindow, loops until rc.done, calls
	// rc.endWindow and fills rc.lat, rc.named and rc.throughput.
	run func(rc *runCtx) error
}

var workloads = map[string]workload{
	"backbone-churn": {name: "backbone-churn", run: runChurn},
	"drift-repair":   {name: "drift-repair", run: runDrift},
	"alarm-cycle":    {name: "alarm-cycle", run: runAlarms},
	"fbnet-read":     {name: "fbnet-read", service: true, run: runReads},
}

// runCtx is one run's state and measurements.
type runCtx struct {
	seed    int64
	seconds time.Duration
	trace   bool
	tr      *tracer
	w       *world

	setupS float64
	setupN int

	// The measured window.
	deadline time.Time
	steal    stealMark
	// share is the part of the window's CPU time the host did not steal.
	// Every end-to-end time is reported scaled by it, and every rate
	// divided by it, so a run the host slowed reads like one it did not.
	share       float64
	base, last  counters
	baseMem     runtime.MemStats
	lastMem     runtime.MemStats
	baseMgmt    int64
	lastMgmt    int64
	baseRec     reconcile.ReconcileStats
	lastRec     reconcile.ReconcileStats
	baseJournal int
	lastJournal int

	lat        []float64 // per op, ms; failedLatency for a failed op
	throughput float64   // ops_per_s
	heapMB     float64
	attempted  int
	failed     int
	named      []namedMetric
	problems   []string

	// mu guards acc and problems, which open-loop clients share.
	mu sync.Mutex
	// acc holds workload-specific raw figures for the per-layer metrics.
	acc   map[string]float64
	layer map[string]float64
}

func (rc *runCtx) add(key string, v float64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.acc[key] += v
}

func (rc *runCtx) peak(key string, v float64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if v > rc.acc[key] {
		rc.acc[key] = v
	}
}

// problem records a failed check; the first few are printed.
func (rc *runCtx) problem(err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if len(rc.problems) < 5 {
		rc.problems = append(rc.problems, err.Error())
	}
}

// beginWindow marks the start of the measured loop. What warm-up ops
// recorded is dropped, except set-up spans (op 0).
func (rc *runCtx) beginWindow() {
	rc.lat = nil
	rc.attempted, rc.failed = 0, 0
	rc.acc = map[string]float64{}
	kept := rc.tr.spans[:0]
	for _, s := range rc.tr.spans {
		if s.Op == 0 {
			kept = append(kept, s)
		}
	}
	rc.tr.spans = kept
	rc.base = snapshotCounters(rc.w.r.Telemetry)
	rc.baseMgmt = rc.w.mgmtOps()
	rc.baseRec = rc.w.r.Reconciler.Stats()
	rc.baseJournal = len(rc.w.r.Reconciler.Journal().Events())
	rc.baseMem = memStats()
	rc.steal = markSteal()
	rc.deadline = time.Now().Add(rc.seconds)
}

func (rc *runCtx) done() bool { return !time.Now().Before(rc.deadline) }

// endWindow closes the measured loop.
func (rc *runCtx) endWindow() {
	rc.share = rc.steal.share()
	rc.lastMem = memStats()
	rc.last = snapshotCounters(rc.w.r.Telemetry)
	rc.lastMgmt = rc.w.mgmtOps()
	rc.lastRec = rc.w.r.Reconciler.Stats()
	rc.lastJournal = len(rc.w.r.Reconciler.Journal().Events())
}

// timeOp runs one closed-loop op. do is timed; check runs after it,
// untimed. An error from either marks the op failed, and a failed op
// misses every latency limit.
func (rc *runCtx) timeOp(kind string, do func() error, check func() error) float64 {
	rc.attempted++
	rc.tr.on = rc.trace
	rc.tr.op++
	root := rc.tr.start("bench." + kind)
	t0 := time.Now()
	err := do()
	d := time.Since(t0)
	rc.tr.end(root)
	rc.tr.on = false
	if err == nil && check != nil {
		err = check()
	}
	v := ms(d)
	if err != nil {
		rc.failed++
		rc.problem(fmt.Errorf("op %d: %w", rc.attempted, err))
		v = failedLatency
	}
	rc.lat = append(rc.lat, v)
	return v
}

func (rc *runCtx) name(name string, value float64, unit string, n int) {
	rc.named = append(rc.named, namedMetric{name: name, value: value, unit: unit, n: n})
}

// nameLatency reports a latency sample set, in ms, under the workload's
// own metric names, corrected for steal like the end-to-end times.
func (rc *runCtx) nameLatency(prefix string, xs []float64) {
	for _, q := range []struct {
		suffix string
		q      float64
	}{{"p50", 0.5}, {"p90", 0.9}} {
		rc.name(fmt.Sprintf("%s_%s_ms", prefix, q.suffix), rc.pct(xs, q.q)*rc.share, "ms", len(xs))
	}
}

// pct is the q-quantile of latencies xs, in ms, as a report shows it. A
// quantile that falls on a failed op reads as the whole measured window,
// longer than any op of the run could take, rather than failedLatency,
// which JSON cannot carry.
func (rc *runCtx) pct(xs []float64, q float64) float64 {
	v := percentile(xs, q)
	if math.IsInf(v, 1) {
		return ms(rc.seconds)
	}
	return v
}
