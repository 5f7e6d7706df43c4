package core

import (
	"fmt"
	"sort"
	"sync"

	"github.com/robotron-net/robotron/internal/monitor"
	"github.com/robotron-net/robotron/internal/netsim"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/topo"
)

// The change-proportional half of the pipeline. SyncFleet, ApplyRecabling
// and DeriveMonitoring each keep a cursor into the shared topology index
// (r.Topo) and redo only the work the index's delta since that cursor
// names. Each keeps its whole-fleet form as the reference it is
// property-tested against: syncFleetFull, applyRecablingFull and
// monitor.DeriveJobs.

// pipelineMetrics counts the per-call work of the incremental stages, so
// a test (or an operator) can see it track the change, not the fleet.
type pipelineMetrics struct {
	circuitsSynced *telemetry.Counter
	devicesDerived *telemetry.Counter
}

func (m *pipelineMetrics) instrument(reg *telemetry.Registry) {
	reg.Help("robotron_sync_circuits_checked_total", "Circuits SyncFleet and ApplyRecabling checked against the cabling.")
	reg.Help("robotron_monitor_devices_derived_total", "Devices whose monitoring jobs and alarm rules were re-derived.")
	m.circuitsSynced = reg.Counter("robotron_sync_circuits_checked_total")
	m.devicesDerived = reg.Counter("robotron_monitor_devices_derived_total")
}

// fleetSync is SyncFleet's state: its cursors into the topology index
// and the fleet's cabling record, and the devices and circuits still to
// check. A circuit whose check errored stays pending, so the error
// surfaces on every call until the cabling or the design changes.
type fleetSync struct {
	mu       sync.Mutex
	cursor   uint64
	cables   uint64
	devices  map[int64]struct{}
	circuits map[int64]struct{}
}

// collect folds the index delta and the fleet's cabling changes into the
// pending sets: new or changed devices, circuits whose row or end
// resolution changed, and every circuit on a device whose cabling moved.
func (fs *fleetSync) collect(r *Robotron, t *topo.Topology, d topo.Delta) {
	moved, next, complete := r.Fleet.CablingChangesSince(fs.cables)
	fs.cables = next
	if fs.devices == nil || d.Full || !complete {
		fs.devices, fs.circuits = map[int64]struct{}{}, map[int64]struct{}{}
		for _, id := range t.DeviceIDs() {
			fs.devices[id] = struct{}{}
		}
		for _, id := range t.CircuitIDs() {
			fs.circuits[id] = struct{}{}
		}
		return
	}
	onDevice := func(dev int64) {
		for _, c := range t.CircuitsOf(dev) {
			fs.circuits[c] = struct{}{}
		}
	}
	for k := range d.Keys {
		switch k.Kind {
		case topo.KDevice:
			fs.devices[k.ID] = struct{}{}
			onDevice(k.ID)
		case topo.KCircuit:
			fs.circuits[k.ID] = struct{}{}
		}
	}
	for _, name := range moved {
		if id, ok := t.DeviceByName(name); ok {
			onDevice(id)
		}
	}
}

// SyncFleet materializes the physical network implied by FBNet Desired
// state into the simulator: devices exist, cables follow circuits, and
// every device logs to the classifier. Idempotent. In production this is
// the part of the world Robotron does NOT control — racking and cabling —
// which is why design changes and deployments are decoupled (§8).
//
// Only devices and circuits the design or the cabling changed since the
// last call are checked; syncFleetFull is the whole-fleet reference.
func (r *Robotron) SyncFleet() error {
	fs := &r.fleetSync
	fs.mu.Lock()
	defer fs.mu.Unlock()
	next, err := r.Topo.Read(fs.cursor, func(t *topo.Topology, d topo.Delta) error {
		fs.collect(r, t, d)
		for _, id := range sortedIDs(fs.devices) {
			if err := r.syncDevice(t, id); err != nil {
				return err
			}
			delete(fs.devices, id)
		}
		r.pipe.circuitsSynced.Add(int64(len(fs.circuits)))
		for _, id := range sortedIDs(fs.circuits) {
			if err := r.syncCircuit(t, id); err != nil {
				return err
			}
			delete(fs.circuits, id)
		}
		return nil
	})
	fs.cursor = next
	return err
}

// syncFleetFull is SyncFleet over every device and circuit.
func (r *Robotron) syncFleetFull() error {
	fs := &r.fleetSync
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var err error
	if verr := r.Topo.View(func(t *topo.Topology) {
		for _, id := range t.DeviceIDs() {
			if err = r.syncDevice(t, id); err != nil {
				return
			}
		}
		for _, id := range t.CircuitIDs() {
			if err = r.syncCircuit(t, id); err != nil {
				return
			}
		}
	}); verr != nil {
		return verr
	}
	return err
}

// syncDevice racks a designed device the fleet does not have yet.
func (r *Robotron) syncDevice(t *topo.Topology, id int64) error {
	dev, ok := t.Device(id)
	if !ok {
		return nil
	}
	if _, exists := r.Fleet.Device(dev.Name); exists {
		return nil
	}
	site, ok := t.SiteName(dev.Site)
	if !ok {
		return fmt.Errorf("core: device %s: site %d does not exist", dev.Name, dev.Site)
	}
	syntax, ok := t.Syntax(id)
	if !ok {
		return fmt.Errorf("core: device %s: hardware profile %d resolves to no vendor", dev.Name, dev.HW)
	}
	vendor := netsim.Vendor1
	if syntax == "vendor2" {
		vendor = netsim.Vendor2
	}
	d, err := r.Fleet.AddDevice(dev.Name, vendor, dev.Role, site)
	if err != nil {
		return err
	}
	d.SetSyslogSink(func(m netsim.SyslogMessage) { r.Classifier.Process(m) })
	if r.clock != nil {
		d.SetTimeFunc(r.clock.Now)
	}
	return nil
}

// liveEnds resolves a non-decommissioned circuit's two ends; ok is false
// when the circuit is gone, decommissioned, or has a NULL end.
func liveEnds(t *topo.Topology, id int64) (a, z topo.End, ok bool, err error) {
	c, exists := t.Circuit(id)
	if !exists || c.Status == "decommissioned" {
		return a, z, false, nil
	}
	a, okA, err := t.End(c.A)
	if err != nil {
		return a, z, false, err
	}
	z, okZ, err := t.End(c.Z)
	if err != nil {
		return a, z, false, err
	}
	return a, z, okA && okZ, nil
}

// syncCircuit lays the cable a designed circuit needs, refusing when the
// physical world contradicts the design.
func (r *Robotron) syncCircuit(t *topo.Topology, id int64) error {
	a, z, ok, err := liveEnds(t, id)
	if err != nil || !ok {
		return err
	}
	if far, farIf, cabled := r.Fleet.CableOf(a.Name, a.Iface); cabled {
		if far != z.Name || farIf != z.Iface {
			return fmt.Errorf("core: %s:%s is cabled to %s:%s but the design wants %s:%s",
				a.Name, a.Iface, far, farIf, z.Name, z.Iface)
		}
		return nil
	}
	return r.Fleet.Wire(a.Name, a.Iface, z.Name, z.Iface)
}

// ApplyRecabling reconciles the physical cabling with the Desired
// circuits: cables contradicting the design are removed and the designed
// ones installed — the field technician executing a cabling work order
// after a circuit migration. Returns the number of cables moved. Like
// SyncFleet it checks only the circuits the design or the cabling
// changed since it last looked.
func (r *Robotron) ApplyRecabling() (int, error) {
	moved, err := r.recable(false)
	if err != nil {
		return moved, err
	}
	return moved, r.SyncFleet()
}

// applyRecablingFull is ApplyRecabling over every circuit.
func (r *Robotron) applyRecablingFull() (int, error) {
	moved, err := r.recable(true)
	if err != nil {
		return moved, err
	}
	return moved, r.syncFleetFull()
}

// recable pulls every cable that contradicts a pending (or, with all,
// any) designed circuit.
func (r *Robotron) recable(all bool) (int, error) {
	fs := &r.fleetSync
	fs.mu.Lock()
	defer fs.mu.Unlock()
	moved := 0
	next, err := r.Topo.Read(fs.cursor, func(t *topo.Topology, d topo.Delta) error {
		fs.collect(r, t, d)
		ids := sortedIDs(fs.circuits)
		if all {
			ids = t.CircuitIDs()
		}
		r.pipe.circuitsSynced.Add(int64(len(ids)))
		for _, id := range ids {
			a, z, ok, err := liveEnds(t, id)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			for _, end := range [2][2]topo.End{{a, z}, {z, a}} {
				near, want := end[0], end[1]
				if far, farIf, cabled := r.Fleet.CableOf(near.Name, near.Iface); cabled &&
					(far != want.Name || farIf != want.Iface) {
					r.Fleet.Uncable(near.Name, near.Iface)
					moved++
				}
			}
		}
		return nil
	})
	fs.cursor = next
	return moved, err
}

// monDerive is DeriveMonitoring's state: its index cursor and the name
// each device's derived jobs and rules are installed under.
type monDerive struct {
	mu     sync.Mutex
	cursor uint64
	names  map[int64]string
}

// DeriveMonitoring regenerates the intent-derived monitoring config:
// collection jobs and alarm rules are recomputed from FBNet and swapped
// in (jobs under the "derived-" prefix, the alarm rules per device).
// No-op when the alarm engine is disabled. Called automatically after
// ProvisionCluster and GenerateAndDeploy.
//
// Only devices the index marks as changed since the last call are
// re-derived; the installed jobs, rules and active alarms are exactly
// what swapping in monitor.DeriveJobs' full output would leave.
func (r *Robotron) DeriveMonitoring() error {
	if r.Alarms == nil {
		return nil
	}
	md := &r.monDerive
	md.mu.Lock()
	defer md.mu.Unlock()
	next, err := r.Topo.Read(md.cursor, func(t *topo.Topology, d topo.Delta) error {
		if d.Full || md.names == nil {
			jobs, rules := monitor.DeriveAll(t)
			if err := r.JobManager.ReplaceJobs("derived-", jobs); err != nil {
				return err
			}
			r.Alarms.ReplaceRules(rules)
			md.names = map[int64]string{}
			for _, id := range t.DeviceIDs() {
				md.names[id] = t.DeviceName(id)
			}
			r.pipe.devicesDerived.Add(int64(len(md.names)))
			r.logf("monitor: derived %d collection jobs, %d alarm rules", len(jobs), len(rules))
			return nil
		}
		affected := map[int64]struct{}{}
		for k := range d.Keys {
			if k.Kind == topo.KDevice || k.Kind == topo.KAttached {
				affected[k.ID] = struct{}{}
			}
		}
		if len(affected) == 0 {
			return nil
		}
		ids := sortedIDs(affected)
		var names []string
		var jobs []monitor.JobSpec
		var rules []monitor.AlarmRule
		for _, id := range ids {
			if old, ok := md.names[id]; ok {
				names = append(names, old)
			}
			if dev, ok := t.Device(id); ok {
				names = append(names, dev.Name)
			}
			j, rl := monitor.DeriveDevice(t, id)
			jobs, rules = append(jobs, j...), append(rules, rl...)
		}
		if err := r.JobManager.ReplaceDeviceJobs("derived-", names, jobs); err != nil {
			return err
		}
		r.Alarms.ReplaceDeviceRules(names, rules)
		for _, id := range ids {
			if dev, ok := t.Device(id); ok {
				md.names[id] = dev.Name
			} else {
				delete(md.names, id)
			}
		}
		r.pipe.devicesDerived.Add(int64(len(ids)))
		r.logf("monitor: re-derived %d device(s)", len(ids))
		return nil
	})
	md.cursor = next
	if err != nil {
		md.names = nil // start over from a full derive next time
	}
	return err
}

func sortedIDs(m map[int64]struct{}) []int64 {
	out := make([]int64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
