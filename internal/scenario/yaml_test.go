package scenario

import (
	"strings"
	"testing"
	"time"
)

// TestParseRoundTrip decodes a document exercising every construct the
// subset supports and checks the typed model field by field.
func TestParseRoundTrip(t *testing.T) {
	src := `# leading comment
name: round-trip
description: "every construct, one file"
seed: 42
start: 2026-01-02T03:04:05Z
end: 2h30m

fleet:
  site: pop9
  cluster: pop9-c1   # trailing comment
  template: pop-gen2
  region: emea

reconciler:
  damping_threshold: -1
  damping_window: 1h
  budget_max_devices: 3
  budget_max_fraction: 0.5
  backoff_base: 2s

faults:
  armed: true
  rules:
    - kind: transient
      probability: 0.25
      verbs: [commit, "show running-config"]
      devices: [pr1.pop9-c1]
      max_count: 7
    - kind: latency
      probability: 1
      latency: 150ms
      verbs: [commit]

service:
  regions: [ash, prn]
  replicas: 2

deploy:
  retry_attempts: 4
  parallelism: 1

backbone:
  site: bb-west
  routers: [bb1, bb2, bb3]

events:
  - at: 1m
    action: drift
    device: pr1.pop9-c1
    line: '! it''s here: a #colon and a quote'
  - at: 2m
    action: deploy
    devices: [all]
    dryrun: true
    expect:
      - type: no-candidates
        device: all
  - at: 3m
    action: deploy
    devices: [bb1, bb2]
    atomic: true
    phased: true
  - at: 4m
    action: uncable
    device: pr1.pop9-c1
    port: et1/1
  - at: 5m
    action: add-circuit
    devices: [bb1, bb2]
  - at: 6m
    action: migrate-circuit
    devices: [bb1, bb2]
    device: bb3

assert:
  - type: metric
    metric: robotron_verify_rejections_total
    labels: []
    op: ==
    value: 0
`
	f, err := Parse("round.yaml", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Name != "round-trip" || f.Description != "every construct, one file" {
		t.Errorf("name/description = %q/%q", f.Name, f.Description)
	}
	if f.Seed != 42 {
		t.Errorf("seed = %d, want 42", f.Seed)
	}
	if want := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC); !f.Start.Equal(want) {
		t.Errorf("start = %v, want %v", f.Start, want)
	}
	if f.End != 2*time.Hour+30*time.Minute {
		t.Errorf("end = %v", f.End)
	}
	if f.Fleet.Site != "pop9" || f.Fleet.Cluster != "pop9-c1" || f.Fleet.Template != "pop-gen2" {
		t.Errorf("fleet = %+v", f.Fleet)
	}
	if f.Fleet.Kind != "pop" {
		t.Errorf("fleet kind not defaulted from template: %q", f.Fleet.Kind)
	}
	if f.Fleet.Region != "emea" {
		t.Errorf("region = %q", f.Fleet.Region)
	}
	if f.Reconciler.DampingThreshold != -1 || f.Reconciler.DampingWindow != time.Hour ||
		f.Reconciler.BudgetMaxDevices != 3 || f.Reconciler.BudgetMaxFrac != 0.5 ||
		f.Reconciler.BackoffBase != 2*time.Second {
		t.Errorf("reconciler = %+v", f.Reconciler)
	}
	if !f.Faults.Armed || len(f.Faults.Rules) != 2 {
		t.Fatalf("faults = %+v", f.Faults)
	}
	r0 := f.Faults.Rules[0]
	if r0.Kind != "transient" || r0.Probability != 0.25 || r0.MaxCount != 7 {
		t.Errorf("rule 0 = %+v", r0)
	}
	if len(r0.Verbs) != 2 || r0.Verbs[1] != "show running-config" {
		t.Errorf("rule 0 verbs = %v", r0.Verbs)
	}
	if f.Faults.Rules[1].Latency != 150*time.Millisecond {
		t.Errorf("rule 1 latency = %v", f.Faults.Rules[1].Latency)
	}
	if f.Service == nil || len(f.Service.Regions) != 2 || f.Service.Replicas != 2 {
		t.Fatalf("service = %+v", f.Service)
	}
	if f.Deploy.RetryAttempts != 4 || f.Deploy.Parallelism != 1 {
		t.Errorf("deploy = %+v", f.Deploy)
	}
	if bb := f.Backbone; bb == nil || bb.Site != "bb-west" || len(bb.Routers) != 3 {
		t.Errorf("backbone = %+v", f.Backbone)
	}
	if len(f.Events) != 6 {
		t.Fatalf("events = %d", len(f.Events))
	}
	ev0 := f.Events[0]
	if ev0.At != time.Minute || ev0.Action != ActDrift || ev0.Device != "pr1.pop9-c1" {
		t.Errorf("event 0 = %+v", ev0)
	}
	if want := "! it's here: a #colon and a quote"; ev0.Text != want {
		t.Errorf("event 0 line = %q, want %q", ev0.Text, want)
	}
	ev1 := f.Events[1]
	if !ev1.DryRun || len(ev1.Devices) != 1 || ev1.Devices[0] != "all" {
		t.Errorf("event 1 = %+v", ev1)
	}
	if len(ev1.Expect) != 1 || ev1.Expect[0].Type != AssertNoCandidates {
		t.Errorf("event 1 expect = %+v", ev1.Expect)
	}
	if ev := f.Events[2]; !ev.Atomic || !ev.Phased || ev.Members != 0 {
		t.Errorf("event 2 = %+v", ev)
	}
	if ev := f.Events[3]; ev.Device != "pr1.pop9-c1" || ev.Port != "et1/1" {
		t.Errorf("event 3 = %+v", ev)
	}
	if ev := f.Events[4]; ev.Members != 1 || len(ev.Devices) != 2 {
		t.Errorf("event 4 = %+v (members defaults to 1)", ev)
	}
	if ev := f.Events[5]; ev.Device != "bb3" || ev.Members != 0 {
		t.Errorf("event 5 = %+v", ev)
	}
	if len(f.Assert) != 1 || f.Assert[0].Op != "==" || f.Assert[0].Value != 0 {
		t.Errorf("assert = %+v", f.Assert)
	}
}

// TestParseDefaults checks the documented fallbacks: seed 1, the fixed
// virtual start instant, end 0, service absent.
func TestParseDefaults(t *testing.T) {
	f, err := Parse("d.yaml", "name: d\nfleet:\n  site: s1\n  cluster: c1\n  template: pop-gen1\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Seed != 1 {
		t.Errorf("seed = %d, want 1", f.Seed)
	}
	if !f.Start.Equal(defaultStart) {
		t.Errorf("start = %v, want %v", f.Start, defaultStart)
	}
	if f.End != 0 || f.Service != nil {
		t.Errorf("end = %v, service = %v", f.End, f.Service)
	}
}

// TestParseRejections feeds malformed documents through the parser and
// checks each is rejected with the expected position and message
// fragment — the error surface operators actually see.
func TestParseRejections(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error, which starts "bad.yaml:<line>: "
	}{
		{"empty", "", "bad.yaml:1: empty scenario file"},
		{"comment only", "# nothing\n\n", "bad.yaml:1: empty scenario file"},
		{"tab indent", "name: x\nfleet:\n\tsite: s\n", "bad.yaml:3: tab indentation"},
		{"top-level indent", "  name: x\n", "bad.yaml:1: top level must not be indented"},
		{"top-level list", "- a\n- b\n", "bad.yaml:1: top level must be a mapping"},
		{"missing colon", "name x\n", `expected "key: value"`},
		{"duplicate key", "name: a\nname: b\n", `bad.yaml:2: duplicate key "name"`},
		{"duplicate nested", "fleet:\n  site: a\n  site: b\n", `bad.yaml:3: duplicate key "site"`},
		{"bad indent jump", "fleet:\n  site: a\n    extra: b\n", "bad.yaml:3: unexpected indentation"},
		{"flow map", "fleet: {site: a}\n", "flow mappings are not supported"},
		{"block scalar", "name: |\n  text\n", "block scalars (| and >) are not supported"},
		{"anchor", "name: &a x\n", "anchors and aliases are not supported"},
		{"unclosed flow", "verbs: [a, b\n", "flow sequence missing closing ]"},
		{"empty flow elem", "verbs: [a, , b]\n", "empty element in flow sequence"},
		{"unterminated dquote", `name: "oops` + "\n", "unterminated"},
		{"unterminated squote", "name: 'oops\n", "unterminated"},
		{"bad escape", `name: "a\q"` + "\n", `unsupported escape \q`},
		{"seq in map", "fleet:\n  site: a\n- b\n", "bad.yaml:3: sequence item in a mapping block"},
		{"empty seq item", "events:\n  -\n", "bad.yaml:2: empty sequence item"},
		{"unknown top field", "name: x\nbogus: y\n", `unknown field "bogus" in scenario`},
		{"unknown event field", "name: x\nfleet:\n  site: s\n  cluster: c\n  template: pop-gen1\nevents:\n  - at: 1m\n    action: wait\n    frobnicate: 1\n", `unknown field "frobnicate" in event`},
		{"bad integer", "name: x\nseed: twelve\n", `"twelve" is not an integer`},
		{"bad duration", "name: x\nend: soon\n", `"soon" is not a duration`},
		{"negative duration", "name: x\nend: -5m\n", "duration must not be negative"},
		{"bad boolean", "name: x\nfleet:\n  site: s\n  cluster: c\n  template: pop-gen1\nfaults:\n  armed: yes\n", `"yes" is not a boolean`},
		{"bad time", "name: x\nstart: yesterday\n", "is not an RFC 3339 time"},
		{"scalar where list", "name: x\nfleet:\n  site: s\n  cluster: c\n  template: pop-gen1\nevents: none\n", `field "events" must be a list`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse("bad.yaml", tc.src)
			if err == nil {
				t.Fatalf("Parse accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestParseErrorsAreDeterministic re-parses the same malformed input and
// demands the identical message: error text is part of the contract
// (golden-tested), so it must not depend on map iteration order.
func TestParseErrorsAreDeterministic(t *testing.T) {
	src := "name: x\nfleet:\n  site: s\n  cluster: c\n  template: pop-gen1\n  bogus1: 1\n  bogus2: 2\n"
	_, first := Parse("bad.yaml", src)
	if first == nil {
		t.Fatal("expected an error")
	}
	for i := 0; i < 20; i++ {
		_, err := Parse("bad.yaml", src)
		if err == nil || err.Error() != first.Error() {
			t.Fatalf("run %d: error %q != first %q", i, err, first)
		}
	}
}

// TestStripComment pins the quote-aware comment rules: '#' only starts a
// comment at start of line or after a space, and never inside quotes.
func TestStripComment(t *testing.T) {
	cases := [][2]string{
		{"a: b # c", "a: b "},
		{"# whole line", ""},
		{`a: "b # not a comment"`, `a: "b # not a comment"`},
		{"a: 'x # y'", "a: 'x # y'"},
		{"a: b#not", "a: b#not"}, // no preceding space: not a comment
		{"a: b # c # d", "a: b "},
	}
	for _, c := range cases {
		if got := stripComment(c[0]); got != c[1] {
			t.Errorf("stripComment(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

// TestFleetDevices pins the device-name prediction the validator and
// "all" resolution rely on.
func TestFleetDevices(t *testing.T) {
	got := FleetDevices(FleetSpec{Cluster: "pop1-c1", Template: "pop-gen1"})
	want := []string{
		"pr1.pop1-c1", "pr2.pop1-c1",
		"psw1.pop1-c1", "psw2.pop1-c1", "psw3.pop1-c1", "psw4.pop1-c1",
	}
	if len(got) != len(want) {
		t.Fatalf("FleetDevices = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FleetDevices[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	dc := FleetDevices(FleetSpec{Cluster: "dc1/c1", Template: "dc-gen3", Racks: 2})
	if n := 4 + 4 + 16 + 2; len(dc) != n {
		t.Fatalf("dc-gen3 with 2 racks: %d devices, want %d", len(dc), n)
	}
	if dc[len(dc)-1] != "tor2.dc1-c1" {
		t.Fatalf("last device = %q, want tor2.dc1-c1 (slash folded to dash)", dc[len(dc)-1])
	}
}
