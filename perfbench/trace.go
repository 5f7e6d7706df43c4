package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"

	"github.com/robotron-net/robotron/internal/telemetry"
)

// span is one call the benchmark made into a layer, or a stage the
// program's own tracer reported under such a call. Name is
// "<layer>.<call>"; the layer is the module under internal/ that did the
// work ("bench" is the benchmark's own bookkeeping around an op).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the same list; -1 for a root
	Op     int64  `json:"op"`     // 0 for set-up
}

// tracer keeps spans in memory for one goroutine; they are written out
// when the run ends. A disabled tracer records nothing and costs one
// branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	op    int64
	spans []span
	stack []int
	// cost is the time spent recording spans: the tracing overhead.
	cost time.Duration
}

func newTracer(on bool, t0 time.Time) *tracer { return &tracer{on: on, t0: t0} }

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

// start opens a span under the innermost open one and returns its handle.
func (t *tracer) start(name string) int {
	if !t.on {
		return -1
	}
	now := time.Now()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: t.since(now), Parent: parent, Op: t.op})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	t.cost += time.Since(now)
	return i
}

// end closes the span start returned.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	now := time.Now()
	t.spans[i].End = t.since(now)
	t.stack = t.stack[:len(t.stack)-1]
	t.cost += time.Since(now)
}

// call wraps fn in a span.
func (t *tracer) call(name string, fn func() error) error {
	i := t.start(name)
	err := fn()
	t.end(i)
	return err
}

// attachStages hangs the direct children of a program trace (the
// generate/verify/deploy/reconcile stages of one GenerateAndDeploy) under
// the benchmark span parent, renamed to the layer that did the work.
// Deeper program spans are not attached: the stages already cover them,
// and deploy's per-device commits overlap in time.
func (t *tracer) attachStages(parent int, root telemetry.SpanSnapshot) {
	if parent < 0 {
		return
	}
	for _, c := range root.Children {
		layer, ok := stageLayer[c.Name]
		if !ok {
			layer = "core." + c.Name
		}
		start := t.since(c.Start)
		t.spans = append(t.spans, span{
			Name: layer, Start: start, End: start + c.DurationNS,
			Parent: parent, Op: t.spans[parent].Op,
		})
	}
}

// stageLayer names the layer behind each stage span core records.
var stageLayer = map[string]string{
	"generate":  "configgen.generate",
	"verify":    "verify.check",
	"deploy":    "deploy.deploy",
	"reconcile": "reconcile.verify_devices",
}

// merge appends another goroutine's spans, re-basing parent indexes.
func (t *tracer) merge(o *tracer) {
	t.cost += o.cost
	base := len(t.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfTimes reduces spans to self time: each span's duration minus the
// part of its interval its children cover.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := spans[k].Start, spans[k].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		self[i] = s.End - s.Start - unionLen(ivs)
	}
	return self
}

func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = iv[0], iv[1], true
			continue
		}
		if iv[1] > curB {
			curB = iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanStats summarises self time per span name.
type spanStats struct {
	calls int
	self  time.Duration
}

func byName(spans []span, self []int64) map[string]spanStats {
	out := map[string]spanStats{}
	for i, s := range spans {
		st := out[s.Name]
		st.calls++
		st.self += time.Duration(self[i])
		out[s.Name] = st
	}
	return out
}

// meanMs is the mean self time per call of the named span, in ms.
func meanMs(stats map[string]spanStats, name string) float64 {
	st := stats[name]
	if st.calls == 0 {
		return 0
	}
	return float64(st.self) / float64(st.calls) / 1e6
}

// overheadPct is the time spent recording spans as a share of the time
// the traced ops took.
func overheadPct(t *tracer) float64 {
	var ops int64
	for _, s := range t.spans {
		if s.Parent < 0 && s.Op > 0 {
			ops += s.End - s.Start
		}
	}
	return 100 * ratio(float64(t.cost), float64(ops))
}

// sumError checks that the spans of each op add up: the self times of an
// op's root and every span below it must sum to the root's duration. It
// returns the largest relative gap over all ops.
func sumError(spans []span, self []int64) float64 {
	rootOf := make([]int, len(spans))
	sums := map[int]int64{}
	worst := 0.0
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = i
		} else {
			rootOf[i] = rootOf[s.Parent]
		}
		sums[rootOf[i]] += self[i]
	}
	for r, sum := range sums {
		d := spans[r].End - spans[r].Start
		if d <= 0 {
			continue
		}
		gap := float64(sum-d) / float64(d)
		if gap < 0 {
			gap = -gap
		}
		if gap > worst {
			worst = gap
		}
	}
	return worst
}

// writeSpans saves the spans with the run's metadata.
func writeSpans(path string, m meta, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Meta  meta   `json:"meta"`
		Spans []span `json:"spans"`
	}{m, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
