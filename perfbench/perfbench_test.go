package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"
)

// One seed must yield the same op sequence and read schedule every time
// it is generated, and another seed a different one.
func TestPlansRepeatPerSeed(t *testing.T) {
	routers := []string{"bb1", "bb2", "bb3", "bb4", "bb5", "bb6", "bb7", "bb8"}
	sites := [][]string{{"a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8"}, {"b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8"}}
	gens := map[string]func(seed int64) any{
		"churn":  func(seed int64) any { return planChurn(seed, routers, 500, false) },
		"writes": func(seed int64) any { return planChurn(seed, routers, 500, true) },
		"drift":  func(seed int64) any { return planDrift(seed, sites, 50) },
		"alarms": func(seed int64) any { return planAlarms(seed, 640, 200) },
		"reads":  func(seed int64) any { return planReads(seed, refRate, 2*time.Second) },
	}
	for name, gen := range gens {
		if a, b := gen(7), gen(7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different sequences", name)
		}
		if a, b := gen(7), gen(8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", name)
		}
	}
}

// The churn plan keeps the circuit count within one of the ring's and
// only ever names circuits that exist in its model.
func TestChurnPlanKeepsCircuitCount(t *testing.T) {
	routers := []string{"bb1", "bb2", "bb3", "bb4", "bb5", "bb6"}
	live := map[[2]string]bool{}
	for i := range routers {
		live[[2]string{routers[i], routers[(i+1)%len(routers)]}] = true
	}
	for i, op := range planChurn(3, routers, 2000, false) {
		key := [2]string{op.A, op.Z}
		switch op.Kind {
		case "add":
			if live[key] || live[[2]string{op.Z, op.A}] {
				t.Fatalf("op %d adds an existing circuit %v", i, key)
			}
			live[key] = true
		case "delete", "migrate":
			if !live[key] {
				t.Fatalf("op %d: %s of unknown circuit %v", i, op.Kind, key)
			}
			delete(live, key)
			if op.Kind == "migrate" {
				live[[2]string{op.A, op.NewZ}] = true
			}
		}
		if n := len(live); n < len(routers)-1 || n > len(routers)+1 {
			t.Fatalf("op %d: %d circuits, want %d±1", i, n, len(routers))
		}
	}
}

// No storm drifts more devices of one site than its shard budget, and no
// device drifts again until the whole site has.
func TestDriftPlanRespectsBudgetAndDamping(t *testing.T) {
	var sites [][]string
	for s := 0; s < 3; s++ {
		var devs []string
		for d := 0; d < 30; d++ {
			devs = append(devs, string(rune('a'+s))+string(rune('A'+d)))
		}
		sites = append(sites, devs)
	}
	storms := planDrift(1, sites, 40)
	last := map[string]int{}
	for i, storm := range storms {
		perSite := map[byte]int{}
		for _, d := range storm {
			perSite[d.Device[0]]++
			if j, ok := last[d.Device]; ok && i-j < 30/driftPerSite {
				t.Fatalf("%s drifts in storms %d and %d", d.Device, j, i)
			}
			last[d.Device] = i
		}
		for site, n := range perSite {
			if n > siteBudget(30) {
				t.Fatalf("storm %d drifts %d devices of site %c, budget %d", i, n, site, siteBudget(30))
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Start: 0, End: 100, Parent: -1},
		{Name: "a.x", Start: 10, End: 40, Parent: 0},
		{Name: "b.y", Start: 30, End: 60, Parent: 0}, // overlaps a.x
		{Name: "c.z", Start: 35, End: 50, Parent: 2},
	}
	got := selfTimes(spans)
	if want := []int64{50, 30, 15, 15}; !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// Each workload, on a tiny fleet, completes ops and passes every output
// check, untraced and traced; the traced run's spans add up.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four small fleets")
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			rc, err := execute(workloads[name], tinyShape, 1, 2*time.Second, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			res := rc.result()
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: attempted %d failed %d: %v", name, trace, res.Attempted, res.Failed, rc.problems)
			}
			if trace {
				if e := rc.layer["trace.sum_error_pct"]; e > sumTolerancePct {
					t.Errorf("%s: spans miss their op by %.2f%%", name, e)
				}
				if rc.layer["reconcile.setup_check_errors"] == 0 {
					t.Errorf("%s: set-up check errors not counted", name)
				}
			}
			for _, v := range res.Metrics {
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metrics must be positive: %+v", name, res.Metrics)
				}
			}
		}
	}
}

// A run in which most ops fail still ends with a result line, and a saved
// report, that count the failures; the failed ops read as the whole
// measured window.
func TestResultLineWhenMostOpsFail(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a small fleet")
	}
	const ops, ok = 20, 2
	failing := workload{name: "failing", run: func(rc *runCtx) error {
		rc.beginWindow()
		for i := 0; i < ops; i++ {
			rc.timeOp("op", func() error { return nil }, func() error {
				if i < ops-ok {
					return errors.New("output check failed")
				}
				return nil
			})
		}
		rc.endWindow()
		rc.nameLatency("op", rc.lat)
		rc.throughput = 1
		return nil
	}}
	rc, err := execute(failing, tinyShape, 1, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	res := rc.result()
	if err := writeReport(filepath.Join(t.TempDir(), "report.json"), meta{}, rc, res); err != nil {
		t.Fatalf("report: %v", err)
	}
	var out bytes.Buffer
	printReport(&out, meta{}, rc, res)
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var got result
	if err := json.Unmarshal(lines[len(lines)-1], &got); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if got.Correct || got.Attempted != ops || got.Failed != ops-ok {
		t.Fatalf("result %+v, want %d attempted and %d failed", got, ops, ops-ok)
	}
	for _, m := range []string{"op_p50_ms", "op_tail_ms"} {
		if v, want := got.Metrics[m].Value, 1000*rc.share; v != want {
			t.Errorf("%s = %v, want the 1000 ms window, steal-corrected to %v", m, v, want)
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics the program
// prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	e2e := (&runCtx{attempted: 1}).result().Metrics
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics, program prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if v, ok := e2e[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("end-to-end %s %s: program prints %+v", m.Name, m.Unit, v)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, program prints %d", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if p := perLayer[i]; p.name != m.Name || p.unit != m.Unit || p.better != m.Better {
			t.Errorf("per-layer %d: %+v, program %+v", i, m, p)
		}
	}
}
