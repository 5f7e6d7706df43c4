package core

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/vclock"
)

// Equivalence of the incremental pipeline stages with their whole-fleet
// references over seeded random change histories. Each history mixes
// backbone router, circuit add, delete and migrate, and cluster
// provisioning with the four verify corruptions (ASN flip, leaked
// subnet, orphaned circuit, partitioned switch), a dropped link group,
// a device rename, and physical uncabling and miswiring. After every step the incremental stage runs first and
// its reference second; the reference must agree with (and find nothing
// left to do after) the incremental result.

var pipelineSeeds = []int64{1, 2, 3, 4}

const pipelineSteps = 24

// pipelineWorld is one Robotron under a virtual clock with a small POP
// cluster and a three-router backbone ring, deployed.
func pipelineWorld(t *testing.T) (*Robotron, *vclock.VirtualClock) {
	t.Helper()
	vc := vclock.NewVirtualClock(time.Unix(1_700_000_000, 0))
	r, err := New(Options{Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Designer.EnsureSite("pop1", "pop", "apac"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ProvisionCluster(testCtx("pop"), "pop1", "pop1-c1", design.POPGen1()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Designer.EnsureSite("bb-east", "backbone", "nam"); err != nil {
		t.Fatal(err)
	}
	bbs := []string{"bb1", "bb2", "bb3"}
	for _, n := range bbs {
		if _, err := r.Designer.AddBackboneRouter(testCtx("backbone"), n, "bb-east", "Backbone_Vendor2", "bb"); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range bbs {
		if _, err := r.Designer.AddBackboneCircuit(testCtx("backbone"), a, bbs[(i+1)%len(bbs)], 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.PromoteCircuits(); err != nil {
		t.Fatal(err)
	}
	if err := r.SyncFleet(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.GenerateAndDeploy(bbs, deploy.Options{}, "e1"); err != nil {
		t.Fatal(err)
	}
	return r, vc
}

// historyStep applies one random change and returns its description.
func historyStep(t *testing.T, r *Robotron, vc *vclock.VirtualClock, rng *rand.Rand, step int) string {
	t.Helper()
	ctx := testCtx("backbone")
	routers := func() []string {
		devs, _ := r.Store.Find("Device", fbnet.Eq("role", "bb"))
		var out []string
		for _, d := range devs {
			out = append(out, d.String("name"))
		}
		sort.Strings(out)
		return out
	}
	bbCircuits := func() []fbnet.Object {
		cs, _ := r.Store.Find("Circuit", fbnet.Contains("circuit_id", "bb"))
		return cs
	}
	liveCircuits := func() []fbnet.Object {
		cs, _ := r.Store.Find("Circuit", fbnet.Ne("status", "decommissioned"))
		var out []fbnet.Object
		for _, c := range cs {
			if c.Ref("a_interface") != 0 && c.Ref("z_interface") != 0 {
				out = append(out, c)
			}
		}
		return out
	}
	switch k := rng.Intn(14); k {
	case 0:
		name := fmt.Sprintf("bb%d", 10+step)
		_, err := r.Designer.AddBackboneRouter(ctx, name, "bb-east", "Backbone_Vendor2", "bb")
		return fmt.Sprintf("add router %s: %v", name, err)
	case 1, 2:
		bbs := routers()
		a, z := bbs[rng.Intn(len(bbs))], bbs[rng.Intn(len(bbs))]
		if a == z {
			return "no-op"
		}
		_, err := r.Designer.AddBackboneCircuit(ctx, a, z, 1+rng.Intn(2))
		return fmt.Sprintf("add circuit %s--%s: %v", a, z, err)
	case 3:
		cs := bbCircuits()
		if len(cs) == 0 {
			return "no-op"
		}
		c := cs[rng.Intn(len(cs))]
		_, err := r.Designer.DeleteCircuit(ctx, c.String("circuit_id"))
		return fmt.Sprintf("delete %s: %v", c.String("circuit_id"), err)
	case 4:
		cs, bbs := bbCircuits(), routers()
		if len(cs) == 0 {
			return "no-op"
		}
		c := cs[rng.Intn(len(cs))]
		nz := bbs[rng.Intn(len(bbs))]
		_, err := r.Designer.MigrateCircuit(ctx, c.String("circuit_id"), nz)
		return fmt.Sprintf("migrate %s to %s: %v", c.String("circuit_id"), nz, err)
	case 5:
		cl := fmt.Sprintf("pop1-c%d", 2+step)
		_, err := r.ProvisionCluster(testCtx("pop"), "pop1", cl, design.POPGen1())
		return fmt.Sprintf("provision %s: %v", cl, err)
	case 6: // ASN flip
		ss, _ := r.Store.Find("BgpV6Session", fbnet.Eq("session_type", "ebgp"))
		if len(ss) == 0 {
			return "no-op"
		}
		s := ss[rng.Intn(len(ss))]
		_, err := r.Store.Mutate(func(m *fbnet.Mutation) error {
			return m.Update("BgpV6Session", s.ID, map[string]any{"remote_as": int64(65900 + rng.Intn(50))})
		})
		return fmt.Sprintf("flip AS of session %d: %v", s.ID, err)
	case 7: // leaked subnet
		ps, _ := r.Store.Find("V6Prefix", fbnet.Eq("purpose", "p2p"))
		if len(ps) < 2 {
			return "no-op"
		}
		victim, target := ps[rng.Intn(len(ps))], ps[rng.Intn(len(ps))]
		leak := netip.PrefixFrom(netip.MustParsePrefix(target.String("prefix")).Addr(), 126)
		_, err := r.Store.Mutate(func(m *fbnet.Mutation) error {
			return m.Update("V6Prefix", victim.ID, map[string]any{"prefix": leak.String()})
		})
		return fmt.Sprintf("leak prefix %d to %s: %v", victim.ID, leak, err)
	case 8: // orphaned circuit
		cs := liveCircuits()
		if len(cs) == 0 {
			return "no-op"
		}
		c := cs[rng.Intn(len(cs))]
		_, err := r.Store.Mutate(func(m *fbnet.Mutation) error {
			return m.Delete("PhysicalInterface", c.Ref("a_interface"))
		})
		return fmt.Sprintf("orphan circuit %s: %v", c.String("circuit_id"), err)
	case 9: // partitioned switch
		psws, _ := r.Store.Find("Device", fbnet.Eq("role", "psw"))
		if len(psws) == 0 {
			return "no-op"
		}
		victim := psws[rng.Intn(len(psws))]
		_, err := r.Store.Mutate(func(m *fbnet.Mutation) error {
			cs, err := m.Find("Circuit", fbnet.Or(
				fbnet.Eq("a_interface.linecard.device", victim.ID),
				fbnet.Eq("z_interface.linecard.device", victim.ID)))
			if err != nil {
				return err
			}
			for _, c := range cs {
				if err := m.Update("Circuit", c.ID, map[string]any{"status": "decommissioned"}); err != nil {
					return err
				}
			}
			return nil
		})
		return fmt.Sprintf("partition %s: %v", victim.String("name"), err)
	case 10: // a bundle dropped from the design, its addressing left behind
		lgs, _ := r.Store.Find("LinkGroup", nil)
		if len(lgs) == 0 {
			return "no-op"
		}
		lg := lgs[rng.Intn(len(lgs))]
		_, err := r.Store.Mutate(func(m *fbnet.Mutation) error { return m.Delete("LinkGroup", lg.ID) })
		return fmt.Sprintf("drop link group %s: %v", lg.String("name"), err)
	case 11: // rename: every key naming the device must follow
		devs, _ := r.Store.Find("Device", nil)
		d := devs[rng.Intn(len(devs))]
		name := fmt.Sprintf("%s-r%d", d.String("name"), step)
		_, err := r.Store.Mutate(func(m *fbnet.Mutation) error {
			return m.Update("Device", d.ID, map[string]any{"name": name})
		})
		return fmt.Sprintf("rename %s to %s: %v", d.String("name"), name, err)
	case 12: // physical uncable
		cs := liveCircuits()
		if len(cs) == 0 {
			return "no-op"
		}
		c := cs[rng.Intn(len(cs))]
		dev, iface := circuitAEnd(t, r, c.ID)
		return fmt.Sprintf("uncable %s:%s: %v", dev, iface, r.Fleet.Uncable(dev, iface))
	default: // miswire
		cs := liveCircuits()
		devs := r.Fleet.Devices()
		if len(cs) == 0 || len(devs) == 0 {
			return "no-op"
		}
		c := cs[rng.Intn(len(cs))]
		dev, iface := circuitAEnd(t, r, c.ID)
		far := devs[rng.Intn(len(devs))].Name()
		r.Fleet.Uncable(dev, iface)
		err := r.Fleet.Wire(dev, iface, far, fmt.Sprintf("et-9/9/%d", step))
		vc.Advance(time.Second)
		return fmt.Sprintf("miswire %s:%s to %s: %v", dev, iface, far, err)
	}
}

// runHistories drives every seed's history, calling check after each
// step with a label naming the seed, step and change.
func runHistories(t *testing.T, check func(t *testing.T, r *Robotron, vc *vclock.VirtualClock, rng *rand.Rand, label string)) {
	for _, seed := range pipelineSeeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r, vc := pipelineWorld(t)
			rng := rand.New(rand.NewSource(seed))
			check(t, r, vc, rng, "setup")
			for step := 0; step < pipelineSteps; step++ {
				what := historyStep(t, r, vc, rng, step)
				check(t, r, vc, rng, fmt.Sprintf("seed %d step %d (%s)", seed, step, what))
				if t.Failed() {
					return
				}
			}
		})
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestPipelineVerifyMatchesFull: the incremental Check and CheckFull
// return identical Results — every violation with its Model, ID,
// Detail, Hunk and order — for a random candidate set after every step.
func TestPipelineVerifyMatchesFull(t *testing.T) {
	runHistories(t, func(t *testing.T, r *Robotron, _ *vclock.VirtualClock, rng *rand.Rand, label string) {
		devs := r.Fleet.Devices()
		var names []string
		for _, d := range devs {
			if rng.Intn(4) == 0 {
				names = append(names, d.Name())
			}
		}
		configs, _ := r.Generator.GenerateMany(names, 2)
		got, err1 := r.Verifier.Check(configs)
		want, err2 := r.Verifier.CheckFull(configs)
		if errString(err1) != errString(err2) {
			t.Fatalf("%s: Check err %v, CheckFull err %v", label, err1, err2)
		}
		got.Elapsed, want.Elapsed = 0, 0
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Check and CheckFull differ\n got: %v\nwant: %v", label, got.Violations, want.Violations)
		}
	})
}

// fleetSnapshot renders every device and cable of the fleet.
func fleetSnapshot(r *Robotron) string {
	var b strings.Builder
	for _, d := range r.Fleet.Devices() {
		fmt.Fprintf(&b, "%s %s\n", d.Name(), d.Site())
		ifs, _ := d.ShowInterfaces()
		for _, ifc := range ifs {
			if far, farIf, ok := r.Fleet.CableOf(d.Name(), ifc.Name); ok {
				fmt.Fprintf(&b, "  %s -> %s:%s\n", ifc.Name, far, farIf)
			}
		}
	}
	return b.String()
}

// TestPipelineSyncFleetMatchesFull: after the incremental SyncFleet (or
// ApplyRecabling), the whole-fleet reference returns the same error and
// leaves the same devices and cabling — it finds nothing left to do.
func TestPipelineSyncFleetMatchesFull(t *testing.T) {
	runHistories(t, func(t *testing.T, r *Robotron, _ *vclock.VirtualClock, rng *rand.Rand, label string) {
		if rng.Intn(3) == 0 {
			_, err1 := r.ApplyRecabling()
			before := fleetSnapshot(r)
			moved, err2 := r.applyRecablingFull()
			if moved != 0 || errString(err1) != errString(err2) || fleetSnapshot(r) != before {
				t.Fatalf("%s: ApplyRecabling err %v; reference moved %d more, err %v", label, err1, moved, err2)
			}
			return
		}
		err1 := r.SyncFleet()
		before := fleetSnapshot(r)
		err2 := r.syncFleetFull()
		if errString(err1) != errString(err2) {
			t.Fatalf("%s: SyncFleet err %v, reference err %v", label, err1, err2)
		}
		if after := fleetSnapshot(r); after != before {
			t.Fatalf("%s: reference changed the fleet after SyncFleet\nbefore:\n%s\nafter:\n%s", label, before, after)
		}
	})
}

// TestPipelineMonitoringMatchesFull: the incrementally derived jobs,
// rules and active alarms are exactly what swapping in DeriveJobs' full
// output leaves. Alarms are evaluated along the way so that some are
// active when their rules vanish.
func TestPipelineMonitoringMatchesFull(t *testing.T) {
	runHistories(t, func(t *testing.T, r *Robotron, vc *vclock.VirtualClock, rng *rand.Rand, label string) {
		if err := r.DeriveMonitoring(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		jobs, rules, alarms := r.JobManager.Jobs(), r.Alarms.Rules(), r.Alarms.Snapshot()
		fullJobs, fullRules, err := monitor.DeriveJobs(r.Store)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.JobManager.ReplaceJobs("derived-", fullJobs); err != nil {
			t.Fatal(err)
		}
		r.Alarms.ReplaceRules(fullRules)
		if got := r.JobManager.Jobs(); !reflect.DeepEqual(jobs, got) {
			t.Fatalf("%s: derived jobs differ from the full derivation (%d vs %d)", label, len(jobs), len(got))
		}
		if got := r.Alarms.Rules(); !reflect.DeepEqual(rules, got) {
			t.Fatalf("%s: derived rules differ from the full derivation (%d vs %d)", label, len(rules), len(got))
		}
		if got := r.Alarms.Snapshot(); !reflect.DeepEqual(alarms, got) {
			t.Fatalf("%s: active alarms differ after the full swap (%d vs %d)", label, len(alarms), len(got))
		}
		switch rng.Intn(3) {
		case 0: // collect, so series exist and can go absent
			if err := r.CollectOnce(); err != nil {
				t.Fatal(err)
			}
		case 1:
			vc.Advance(11 * time.Minute)
			r.Alarms.Evaluate()
		}
	})
}

// pipelineCounters reads the incremental stages' work counters.
func pipelineCounters(r *Robotron) [3]int64 {
	return [3]int64{
		r.Telemetry.Counter("robotron_verify_keys_rechecked_total").Value(),
		r.Telemetry.Counter("robotron_sync_circuits_checked_total").Value(),
		r.Telemetry.Counter("robotron_monitor_devices_derived_total").Value(),
	}
}

// TestPipelineFleetSizeIndependence: the same backbone circuit add,
// delete and migrate cost the same verify keys, synced circuits and
// re-derived devices whether 4 or 16 POP clusters sit beside the
// backbone.
func TestPipelineFleetSizeIndependence(t *testing.T) {
	perChange := func(clusters int) [][3]int64 {
		r := newRobotron(t)
		for i := 1; i <= clusters; i++ {
			site := fmt.Sprintf("pop%d", i)
			if _, err := r.Designer.EnsureSite(site, "pop", "apac"); err != nil {
				t.Fatal(err)
			}
			if _, err := r.ProvisionCluster(testCtx("pop"), site, site+"-c1", design.POPGen1()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.Designer.EnsureSite("bb-east", "backbone", "nam"); err != nil {
			t.Fatal(err)
		}
		bbs := []string{"bb1", "bb2", "bb3", "bb4"}
		for _, n := range bbs {
			if _, err := r.Designer.AddBackboneRouter(testCtx("backbone"), n, "bb-east", "Backbone_Vendor2", "bb"); err != nil {
				t.Fatal(err)
			}
		}
		for i, a := range bbs {
			if _, err := r.Designer.AddBackboneCircuit(testCtx("backbone"), a, bbs[(i+1)%len(bbs)], 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := r.PromoteCircuits(); err != nil {
			t.Fatal(err)
		}
		if err := r.SyncFleet(); err != nil {
			t.Fatal(err)
		}
		if _, err := r.GenerateAndDeploy(bbs, deploy.Options{}, "e1"); err != nil {
			t.Fatal(err)
		}
		circuitID := func(a, z string) string {
			c, err := r.Store.FindOne("Circuit", fbnet.And(
				fbnet.Contains("circuit_id", a+":"), fbnet.Contains("circuit_id", z+":")))
			if err != nil {
				t.Fatal(err)
			}
			return c.String("circuit_id")
		}
		changes := []struct {
			devices []string
			apply   func() (design.ChangeResult, error)
		}{
			{[]string{"bb1", "bb3"}, func() (design.ChangeResult, error) {
				return r.Designer.AddBackboneCircuit(testCtx("backbone"), "bb1", "bb3", 1)
			}},
			{[]string{"bb1", "bb3"}, func() (design.ChangeResult, error) {
				return r.Designer.DeleteCircuit(testCtx("backbone"), circuitID("bb1", "bb3"))
			}},
			{[]string{"bb1", "bb2", "bb3"}, func() (design.ChangeResult, error) {
				return r.Designer.MigrateCircuit(testCtx("backbone"), circuitID("bb1", "bb2"), "bb3")
			}},
		}
		var out [][3]int64
		for _, ch := range changes {
			before := pipelineCounters(r)
			if _, err := ch.apply(); err != nil {
				t.Fatal(err)
			}
			if _, err := r.ApplyRecabling(); err != nil {
				t.Fatal(err)
			}
			if _, err := r.GenerateAndDeploy(ch.devices, deploy.Options{}, "e1"); err != nil {
				t.Fatal(err)
			}
			after := pipelineCounters(r)
			var d [3]int64
			for i := range d {
				d[i] = after[i] - before[i]
			}
			out = append(out, d)
		}
		return out
	}
	small, large := perChange(4), perChange(16)
	if !reflect.DeepEqual(small, large) {
		t.Fatalf("per-change work grows with the fleet:\n 4 clusters: %v\n16 clusters: %v", small, large)
	}
	for i, d := range small {
		for j, n := range d {
			if n == 0 {
				t.Errorf("change %d: counter %d did not move; the test no longer measures the stage", i, j)
			}
		}
	}
}

// TestProvisionRaisesNoCheckErrors: goldens are committed before the
// devices are provisioned, so no config check errors on a missing golden
// and none reports the erase as drift.
func TestProvisionRaisesNoCheckErrors(t *testing.T) {
	r, err := New(Options{EnableReconciler: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Reconciler.Stop()
	provisionPOP(t, r)
	if n := r.ConfigMon.CheckErrors(); n != 0 {
		t.Errorf("config monitor check errors = %d, want 0", n)
	}
	if n := r.Reconciler.Stats().CheckErrors; n != 0 {
		t.Errorf("reconciler check errors = %d, want 0", n)
	}
	if devs := r.ConfigMon.Deviations(); len(devs) != 0 {
		t.Errorf("provisioning reported %d deviation(s): %+v", len(devs), devs[0].Device)
	}
}
