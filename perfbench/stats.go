package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/robotron-net/robotron/internal/telemetry"
)

// failedLatency stands in for the latency of a failed op: it sorts after
// every real latency, so a failure misses every latency limit. Reports
// never carry it; runCtx.pct turns it into a finite figure.
var failedLatency = math.Inf(1)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// counters flattens a telemetry snapshot: label variants of one metric
// are summed; a histogram contributes "<name>_count" and "<name>_sum".
type counters map[string]float64

func snapshotCounters(reg *telemetry.Registry) counters {
	out := counters{}
	for _, m := range reg.Snapshot() {
		if m.Kind == "histogram" {
			out[m.Name+"_count"] += m.Value
			out[m.Name+"_sum"] += m.Sum
			continue
		}
		out[m.Name] += m.Value
	}
	return out
}

// delta is how much a metric grew since base.
func (c counters) delta(base counters, name string) float64 { return c[name] - base[name] }

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memStats reads the runtime's allocation counters.
func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// liveHeapMB forces a collection and reports the heap still in use.
func liveHeapMB() float64 {
	runtime.GC()
	m := memStats()
	return float64(m.HeapAlloc) / (1 << 20)
}
