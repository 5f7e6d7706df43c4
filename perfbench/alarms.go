package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/robotron-net/robotron/internal/monitor"
)

// planAlarms draws the circuits to cut, as indexes into the sorted POP
// circuits. Every cut runs the same cycles (fire, holdCycles, re-wire,
// resolve), so seeds differ in which ports fail, not in the mix of cycles.
func planAlarms(seed int64, circuits, n int) []int {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(circuits)
	}
	return out
}

const (
	cycleStep = time.Minute // virtual time between monitoring cycles
	// holdCycles is how long a cut's alarm stays firing before the re-wire.
	holdCycles = 2
	// cutBound is how many cycles a cut's alarm may take to fire, and
	// then to resolve after the re-wire, before the check fails.
	cutBound = 3
	// steadyCycles of unchanged firing count end the warm-up.
	steadyCycles = 3
	alarmPlanLen = 10000
)

// cutRule is the rule that watches a cut port: its counters stop moving.
const cutRule = "flatline-octets"

func runAlarms(rc *runCtx) error {
	w := rc.w
	circuits, err := w.popCircuits()
	if err != nil {
		return err
	}
	if err := w.alarmWarmup(rc); err != nil {
		return err
	}
	plan := planAlarms(rc.seed, len(circuits), alarmPlanLen)
	rc.beginWindow()
	var detect []float64
	var cycleTime float64
	cycles := 0
	var cur struct {
		a, z   end
		at     time.Time // wall time of the cut
		waited int       // cycles in the current phase
		phase  int       // 0 await fire, 1 hold, 2 await resolve
	}
	next := 0
	startCut := func() error {
		c := plan[next%len(plan)]
		next++
		a, z, err := w.circuitEnds(circuits[c])
		if err != nil {
			return err
		}
		cur.a, cur.z, cur.waited, cur.phase = a, z, 0, 0
		cur.at = time.Now()
		return rc.tr.call("netsim.cable", func() error {
			if !w.r.Fleet.Uncable(a.dev, a.ifc) {
				return fmt.Errorf("%s:%s was not cabled", a.dev, a.ifc)
			}
			return nil
		})
	}
	if err := startCut(); err != nil {
		return err
	}
	for !rc.done() {
		var firing []monitor.Alarm
		v := rc.timeOp("cycle", func() error {
			var err error
			firing, err = w.observe(rc)
			return err
		}, func() error {
			cur.waited++
			hit := cutAlarm(firing, cur.a, cur.z)
			switch cur.phase {
			case 0:
				if hit == nil {
					if cur.waited > cutBound {
						cur.phase, cur.waited = 2, 0
						if err := w.r.Fleet.Wire(cur.a.dev, cur.a.ifc, cur.z.dev, cur.z.ifc); err != nil {
							return fmt.Errorf("re-wire %s:%s: %w", cur.a.dev, cur.a.ifc, err)
						}
						return fmt.Errorf("cut %s:%s: no %s alarm within %d cycles", cur.a.dev, cur.a.ifc, cutRule, cutBound)
					}
					return nil
				}
				detect = append(detect, ms(time.Since(cur.at)))
				cur.phase, cur.waited = 1, 0
				if len(hit.Correlated) == 0 {
					return fmt.Errorf("cut %s:%s: alarm fired with no correlated events", cur.a.dev, cur.a.ifc)
				}
			case 1:
				if cur.waited >= holdCycles {
					cur.phase, cur.waited = 2, 0
					if err := w.r.Fleet.Wire(cur.a.dev, cur.a.ifc, cur.z.dev, cur.z.ifc); err != nil {
						return fmt.Errorf("re-wire %s:%s: %w", cur.a.dev, cur.a.ifc, err)
					}
				}
			case 2:
				if hit == nil {
					return startCut()
				}
				if cur.waited > cutBound {
					err := fmt.Errorf("cut %s:%s: alarm still firing %d cycles after re-wire", cur.a.dev, cur.a.ifc, cutBound)
					if e := startCut(); e != nil {
						return e
					}
					return err
				}
			}
			return nil
		})
		w.vc.Advance(cycleStep)
		if v != failedLatency {
			cycles++
			cycleTime += v
		}
	}
	rc.endWindow()
	firing := w.r.Alarms.Firing()
	false_ := 0
	correlated := 0
	for _, al := range firing {
		correlated += len(al.Correlated)
		if cur.phase < 2 && (onEnd(al, cur.a) || onEnd(al, cur.z)) {
			continue
		}
		false_++
	}
	rc.add("monitor.false_alarms", float64(false_))
	rc.add("monitor.correlated_per_alarm", ratio(float64(correlated), float64(len(firing))))
	rc.add("monitor.timeline_entries", float64(len(w.r.Alarms.Timeline(time.Time{}, time.Time{}))))
	rc.add("monitor.rules_evaluated", float64(len(w.r.Alarms.Rules())*rc.attempted))
	rc.throughput = ratio(float64(cycles), cycleTime/1e3) / rc.share
	rc.nameLatency("cycle", rc.lat)
	rc.name("detect_p50_ms", median(detect)*rc.share, "ms", len(detect))
	rc.name("cycles_per_s", rc.throughput, "1/s", cycles)
	return nil
}

// observe is ObserveOnce split into its two public halves.
func (w *world) observe(rc *runCtx) ([]monitor.Alarm, error) {
	if err := rc.tr.call("monitor.collect", w.r.CollectOnce); err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}
	i := rc.tr.start("monitor.evaluate")
	firing := w.r.Alarms.Evaluate()
	rc.tr.end(i)
	return firing, nil
}

// alarmWarmup cycles until the absence windows of every rule have
// elapsed and the firing count has then held still for steadyCycles, so
// the measured window starts after the mass firing.
func (w *world) alarmWarmup(rc *runCtx) error {
	var longest time.Duration
	for _, r := range w.r.Alarms.Rules() {
		if r.Window > longest {
			longest = r.Window
		}
	}
	minCycles := int(longest/cycleStep) + 2
	last, same := -1, 0
	for i := 0; i < minCycles+60; i++ {
		firing, err := w.observe(rc)
		if err != nil {
			return err
		}
		w.vc.Advance(cycleStep)
		if len(firing) == last {
			same++
		} else {
			last, same = len(firing), 0
		}
		if i >= minCycles && same >= steadyCycles {
			return nil
		}
	}
	return fmt.Errorf("firing alarm count never settled (last %d)", last)
}

// cutAlarm finds the firing alarm watching either end of a cut.
func cutAlarm(firing []monitor.Alarm, a, z end) *monitor.Alarm {
	for i := range firing {
		al := &firing[i]
		if al.Rule == cutRule && (onEnd(*al, a) || onEnd(*al, z)) {
			return al
		}
	}
	return nil
}

// onEnd reports whether an alarm is keyed on the given port.
func onEnd(al monitor.Alarm, e end) bool {
	return al.Device == e.dev && strings.HasPrefix(al.Key, e.ifc+"/")
}
