package monitor

import (
	"sort"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/topo"
)

// DeriveJobs is the full-walk reference derivation: DeriveDevice over the
// topology index must produce, device by device, exactly what it does.
//
// DeriveJobs walks FBNet Desired state and emits the collection job set
// plus the alarm rule set it implies — monitoring config is generated
// from intent exactly like device config (§5.4: "collection configs are
// derived from FBNet"), so re-running the derivation after a design
// change regenerates what to collect and what to alarm on.
//
// Per device: a counters job (1m), an interfaces job (2m), and — only if
// the device terminates BGP sessions — a BGP state job (5m). The engine
// type follows the device's vendor: vendor2 speaks structured protocols
// (Thrift/RPC-XML), vendor1 is polled over SNMP/CLI (§5.4.2, Table 2).
//
// Per design object, an alarm rule: device-unreachable (absence of the
// cpu_util series) per device, bgp-session-down per BGP session with a
// remote address, interface-flatline (series absence) and flatline-octets
// (counter frozen) per physical interface.
func DeriveJobs(store *fbnet.Store) ([]JobSpec, []AlarmRule, error) {
	devices, err := store.Find("Device", nil)
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(devices, func(i, j int) bool {
		return devices[i].String("name") < devices[j].String("name")
	})

	// device id -> name, and vendor syntax per device.
	devName := make(map[int64]string, len(devices))
	for _, d := range devices {
		devName[d.ID] = d.String("name")
	}
	syntax, err := vendorSyntax(store, devices)
	if err != nil {
		return nil, nil, err
	}

	// Which devices terminate BGP sessions, and the session endpoints.
	type session struct{ dev, peer string }
	var sessions []session
	hasBGP := make(map[string]bool)
	for _, model := range []string{"BgpV6Session", "BgpV4Session"} {
		rows, err := store.Find(model, nil)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range rows {
			dev := devName[s.Ref("local_device")]
			if dev == "" {
				continue
			}
			hasBGP[dev] = true
			if peer := s.String("remote_addr"); peer != "" {
				sessions = append(sessions, session{dev: dev, peer: peer})
			}
		}
	}
	sort.Slice(sessions, func(i, j int) bool {
		if sessions[i].dev != sessions[j].dev {
			return sessions[i].dev < sessions[j].dev
		}
		return sessions[i].peer < sessions[j].peer
	})

	// Interfaces per device via linecard parentage.
	cards, err := store.Find("Linecard", nil)
	if err != nil {
		return nil, nil, err
	}
	cardDev := make(map[int64]string, len(cards))
	for _, c := range cards {
		cardDev[c.ID] = devName[c.Ref("device")]
	}
	ifaces, err := store.Find("PhysicalInterface", nil)
	if err != nil {
		return nil, nil, err
	}
	type port struct{ dev, ifc string }
	ports := make([]port, 0, len(ifaces))
	for _, ifc := range ifaces {
		if dev := cardDev[ifc.Ref("linecard")]; dev != "" {
			ports = append(ports, port{dev: dev, ifc: ifc.String("name")})
		}
	}
	sort.Slice(ports, func(i, j int) bool {
		if ports[i].dev != ports[j].dev {
			return ports[i].dev < ports[j].dev
		}
		return ports[i].ifc < ports[j].ifc
	})

	var jobs []JobSpec
	var rules []AlarmRule
	for _, d := range devices {
		name := d.String("name")
		v2 := syntax[name] == "vendor2"
		countersEngine, ifaceEngine, bgpEngine := EngineSNMP, EngineSNMP, EngineCLI
		if v2 {
			countersEngine, ifaceEngine, bgpEngine = EngineThrift, EngineRPCXML, EngineThrift
		}
		jobs = append(jobs,
			JobSpec{Name: "derived-counters-" + name, Period: 1 * time.Minute,
				Engine: countersEngine, Data: DataCounters,
				Devices: []string{name}, Backends: []string{"timeseries"}},
			JobSpec{Name: "derived-interfaces-" + name, Period: 2 * time.Minute,
				Engine: ifaceEngine, Data: DataInterfaces,
				Devices: []string{name}, Backends: []string{"timeseries", "fbnet-derived"}},
		)
		if hasBGP[name] {
			jobs = append(jobs, JobSpec{Name: "derived-bgp-" + name, Period: 5 * time.Minute,
				Engine: bgpEngine, Data: DataBGP,
				Devices: []string{name}, Backends: []string{"fbnet-derived"}})
		}
		rules = append(rules, AlarmRule{
			Name: "device-unreachable", Kind: KindAbsence, Device: name,
			Key: "cpu_util", Window: 5 * time.Minute, Urgency: Critical,
		})
	}
	for _, s := range sessions {
		rules = append(rules, AlarmRule{
			Name: "bgp-session-down", Kind: KindBGPState,
			Device: s.dev, Key: s.peer, Urgency: Major,
		})
	}
	for _, p := range ports {
		rules = append(rules,
			AlarmRule{Name: "interface-flatline", Kind: KindAbsence, Device: p.dev,
				Key: p.ifc + "/in_octets", Window: 10 * time.Minute, Urgency: Warning},
			AlarmRule{Name: "flatline-octets", Kind: KindFlatline, Device: p.dev,
				Key: p.ifc + "/out_octets", Urgency: Minor},
		)
	}
	return jobs, rules, nil
}

// vendorSyntax resolves each device's Vendor syntax string through its
// hardware profile; devices with no resolvable profile default to the
// vendor1 personality, matching the fleet materializer.
func vendorSyntax(store *fbnet.Store, devices []fbnet.Object) (map[string]string, error) {
	out := make(map[string]string, len(devices))
	for _, d := range devices {
		out[d.String("name")] = "vendor1"
		hw, err := store.GetByID("HardwareProfile", d.Ref("hw_profile"))
		if err != nil {
			continue
		}
		vendor, err := store.GetByID("Vendor", hw.Ref("vendor"))
		if err != nil {
			continue
		}
		out[d.String("name")] = vendor.String("syntax")
	}
	return out, nil
}

// DeriveDevice derives one device's share of DeriveJobs' output from the
// topology index: its jobs in DeriveJobs' order (counters, interfaces,
// then BGP), and its alarm rules. A device that does not exist yields
// nothing.
func DeriveDevice(t *topo.Topology, id int64) ([]JobSpec, []AlarmRule) {
	d, ok := t.Device(id)
	if !ok {
		return nil, nil
	}
	name := d.Name
	syntax, ok := t.Syntax(id)
	if !ok {
		syntax = "vendor1"
	}
	countersEngine, ifaceEngine, bgpEngine := EngineSNMP, EngineSNMP, EngineCLI
	if syntax == "vendor2" {
		countersEngine, ifaceEngine, bgpEngine = EngineThrift, EngineRPCXML, EngineThrift
	}
	jobs := []JobSpec{
		{Name: "derived-counters-" + name, Period: 1 * time.Minute,
			Engine: countersEngine, Data: DataCounters,
			Devices: []string{name}, Backends: []string{"timeseries"}},
		{Name: "derived-interfaces-" + name, Period: 2 * time.Minute,
			Engine: ifaceEngine, Data: DataInterfaces,
			Devices: []string{name}, Backends: []string{"timeseries", "fbnet-derived"}},
	}
	rules := []AlarmRule{{
		Name: "device-unreachable", Kind: KindAbsence, Device: name,
		Key: "cpu_util", Window: 5 * time.Minute, Urgency: Critical,
	}}
	hasBGP := false
	for _, k := range t.SessionsOf(id) {
		s, _ := t.Session(k)
		if s.Local != id {
			continue
		}
		hasBGP = true
		if s.RemoteAddr != "" {
			rules = append(rules, AlarmRule{
				Name: "bgp-session-down", Kind: KindBGPState,
				Device: name, Key: s.RemoteAddr, Urgency: Major,
			})
		}
	}
	if hasBGP {
		jobs = append(jobs, JobSpec{Name: "derived-bgp-" + name, Period: 5 * time.Minute,
			Engine: bgpEngine, Data: DataBGP,
			Devices: []string{name}, Backends: []string{"fbnet-derived"}})
	}
	for _, p := range t.Pifs(id) {
		pif, _ := t.Pif(p)
		rules = append(rules,
			AlarmRule{Name: "interface-flatline", Kind: KindAbsence, Device: name,
				Key: pif.Name + "/in_octets", Window: 10 * time.Minute, Urgency: Warning},
			AlarmRule{Name: "flatline-octets", Kind: KindFlatline, Device: name,
				Key: pif.Name + "/out_octets", Urgency: Minor},
		)
	}
	return jobs, rules
}

// DeriveAll is DeriveDevice over every device in name order: the whole
// derived job and rule set, as DeriveJobs computes it.
func DeriveAll(t *topo.Topology) ([]JobSpec, []AlarmRule) {
	ids := t.DeviceIDs()
	sort.Slice(ids, func(i, j int) bool { return t.DeviceName(ids[i]) < t.DeviceName(ids[j]) })
	var jobs []JobSpec
	var rules []AlarmRule
	for _, id := range ids {
		j, r := DeriveDevice(t, id)
		jobs = append(jobs, j...)
		rules = append(rules, r...)
	}
	return jobs, rules
}
