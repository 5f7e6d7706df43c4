// Package audit detects deviations between FBNet's Desired and Derived
// model groups (SIGCOMM '16, §4.1.2): "Differences between data in both
// models could imply expected or unexpected deviation from planned network
// design due to reasons such as unapplied config changes, or unplanned
// events such as hardware failures, fiber cuts, or misconfigurations."
package audit

import (
	"fmt"
	"sort"
	"strings"

	"github.com/robotron-net/robotron/internal/fbnet"
)

// Kind classifies an anomaly.
type Kind string

const (
	// DeviceSilent: a Desired device has no Derived record (never polled
	// or unreachable).
	DeviceSilent Kind = "device-silent"
	// CircuitMissing: a Desired production circuit is not observed via
	// LLDP (fiber cut, miscable, or unapplied config).
	CircuitMissing Kind = "circuit-missing"
	// CircuitUnexpected: an observed adjacency has no Desired circuit
	// (undesigned cabling).
	CircuitUnexpected Kind = "circuit-unexpected"
	// InterfaceDown: an interface that terminates a production circuit is
	// operationally down.
	InterfaceDown Kind = "interface-down"
	// BGPDown: a designed BGP session is not Established.
	BGPDown Kind = "bgp-down"
	// ConfigDeviates: a device's running config does not match golden.
	ConfigDeviates Kind = "config-deviates"
	// OSMismatch: a device runs a different OS version than its assigned
	// image (§1's OS upgrade task, pending or drifted).
	OSMismatch Kind = "os-mismatch"
)

// Anomaly is one detected Desired/Derived divergence.
type Anomaly struct {
	Kind   Kind
	Device string
	Detail string
}

func (a Anomaly) String() string {
	return fmt.Sprintf("[%s] %s: %s", a.Kind, a.Device, a.Detail)
}

// Report is the result of one audit pass.
type Report struct {
	Anomalies []Anomaly
}

// Clean reports whether the audit found nothing.
func (r Report) Clean() bool { return len(r.Anomalies) == 0 }

// ByKind returns anomaly counts per kind.
func (r Report) ByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, a := range r.Anomalies {
		out[a.Kind]++
	}
	return out
}

// RecordGate persists one pre-deploy verification-gate decision as an
// OperationalEvent, so gate history is queryable next to the rest of the
// operational record (who was rejected, when, and why).
func RecordGate(store *fbnet.Store, devices int, violations []string, atUnix int64) error {
	urgency := "NOTICE"
	detail := fmt.Sprintf("verified %d devices, all invariants hold", devices)
	if len(violations) > 0 {
		urgency = "CRITICAL"
		detail = fmt.Sprintf("rejected deployment of %d devices, %d violation(s): %s",
			devices, len(violations), strings.Join(violations, "; "))
	}
	_, err := store.Mutate(func(m *fbnet.Mutation) error {
		_, err := m.Create("OperationalEvent", map[string]any{
			"device_name": "verify-gate",
			"kind":        "verify-gate",
			"detail":      detail,
			"urgency":     urgency,
			"at_unix":     atUnix,
		})
		return err
	})
	return err
}

// RecordGateBypass persists a deployment that skipped verification
// (core.Options.VerifyIntent false): habitual bypasses must be visible
// in the operational record even though no invariants were checked.
func RecordGateBypass(store *fbnet.Store, devices int, atUnix int64) error {
	_, err := store.Mutate(func(m *fbnet.Mutation) error {
		_, err := m.Create("OperationalEvent", map[string]any{
			"device_name": "verify-gate",
			"kind":        "verify-gate",
			"detail":      fmt.Sprintf("gate BYPASSED for deployment of %d devices (VerifyIntent off)", devices),
			"urgency":     "WARNING",
			"at_unix":     atUnix,
		})
		return err
	})
	return err
}

// RecordDeploy persists one deployment (or initial provisioning) as an
// OperationalEvent, so the operational timeline can show "config moved"
// between the verify verdict and whatever alarmed afterwards. kind is
// "deploy" or "provision".
func RecordDeploy(store *fbnet.Store, kind string, devices int, detail string, atUnix int64) error {
	_, err := store.Mutate(func(m *fbnet.Mutation) error {
		_, err := m.Create("OperationalEvent", map[string]any{
			"device_name": "deployer",
			"kind":        kind,
			"detail":      fmt.Sprintf("%s of %d device(s): %s", kind, devices, detail),
			"urgency":     "NOTICE",
			"at_unix":     atUnix,
		})
		return err
	})
	return err
}

// Run executes all audits over the store.
func Run(store *fbnet.Store) (Report, error) {
	var rep Report
	for _, f := range []func(*fbnet.Store, *Report) error{
		auditDevices, auditCircuits, auditInterfaces, auditBGP, auditConfigs, auditOS,
	} {
		if err := f(store, &rep); err != nil {
			return Report{}, err
		}
	}
	sort.Slice(rep.Anomalies, func(i, j int) bool {
		if rep.Anomalies[i].Kind != rep.Anomalies[j].Kind {
			return rep.Anomalies[i].Kind < rep.Anomalies[j].Kind
		}
		if rep.Anomalies[i].Device != rep.Anomalies[j].Device {
			return rep.Anomalies[i].Device < rep.Anomalies[j].Device
		}
		return rep.Anomalies[i].Detail < rep.Anomalies[j].Detail
	})
	return rep, nil
}

// auditDevices flags Desired devices with no Derived record.
func auditDevices(store *fbnet.Store, rep *Report) error {
	desired, err := store.Find("Device", nil)
	if err != nil {
		return err
	}
	derived, err := store.Find("DerivedDevice", nil)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, d := range derived {
		seen[d.String("name")] = true
	}
	for _, d := range desired {
		if !seen[d.String("name")] {
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Kind: DeviceSilent, Device: d.String("name"),
				Detail: "designed device has no operational record",
			})
		}
	}
	return nil
}

// desiredCircuitEnds resolves a Desired circuit to (device, interface)
// endpoint pairs.
func desiredCircuitEnds(store *fbnet.Store, c fbnet.Object) (ends [2][2]string, ok bool, err error) {
	for i, field := range []string{"a_interface", "z_interface"} {
		pifID := c.Ref(field)
		if pifID == 0 {
			return ends, false, nil
		}
		pif, err := store.GetByID("PhysicalInterface", pifID)
		if err != nil {
			return ends, false, err
		}
		lc, err := store.GetByID("Linecard", pif.Ref("linecard"))
		if err != nil {
			return ends, false, err
		}
		dev, err := store.GetByID("Device", lc.Ref("device"))
		if err != nil {
			return ends, false, err
		}
		ends[i] = [2]string{dev.String("name"), pif.String("name")}
	}
	return ends, true, nil
}

// auditCircuits cross-checks Desired production circuits against LLDP-
// derived circuits, in both directions.
func auditCircuits(store *fbnet.Store, rep *Report) error {
	observed, err := store.Find("DerivedCircuit", nil)
	if err != nil {
		return err
	}
	obsSet := map[string]bool{}
	for _, o := range observed {
		key := circuitKey(o.String("a_device"), o.String("a_interface"), o.String("z_device"), o.String("z_interface"))
		obsSet[key] = true
	}
	desired, err := store.Find("Circuit", fbnet.Eq("status", "production"))
	if err != nil {
		return err
	}
	desSet := map[string]bool{}
	for _, c := range desired {
		ends, ok, err := desiredCircuitEnds(store, c)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		key := circuitKey(ends[0][0], ends[0][1], ends[1][0], ends[1][1])
		desSet[key] = true
		if !obsSet[key] {
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Kind: CircuitMissing, Device: ends[0][0],
				Detail: fmt.Sprintf("circuit %s not observed via LLDP (%s)", c.String("circuit_id"), key),
			})
		}
	}
	for key := range obsSet {
		if !desSet[key] {
			dev := strings.SplitN(key, ":", 2)[0]
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Kind: CircuitUnexpected, Device: dev,
				Detail: fmt.Sprintf("observed adjacency %s has no production circuit in the design", key),
			})
		}
	}
	return nil
}

// circuitKey builds an orientation-independent circuit identity.
func circuitKey(aDev, aIf, zDev, zIf string) string {
	a := aDev + ":" + aIf
	z := zDev + ":" + zIf
	if a > z {
		a, z = z, a
	}
	return a + "--" + z
}

// auditInterfaces flags production-circuit endpoints that are down.
func auditInterfaces(store *fbnet.Store, rep *Report) error {
	derived, err := store.Find("DerivedInterface", nil)
	if err != nil {
		return err
	}
	status := map[string]string{}
	for _, d := range derived {
		status[d.String("device_name")+":"+d.String("name")] = d.String("oper_status")
	}
	circuits, err := store.Find("Circuit", fbnet.Eq("status", "production"))
	if err != nil {
		return err
	}
	for _, c := range circuits {
		ends, ok, err := desiredCircuitEnds(store, c)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		for _, end := range ends {
			key := end[0] + ":" + end[1]
			if st, polled := status[key]; polled && st != "up" {
				rep.Anomalies = append(rep.Anomalies, Anomaly{
					Kind: InterfaceDown, Device: end[0],
					Detail: fmt.Sprintf("interface %s terminates production circuit %s but is %s",
						end[1], c.String("circuit_id"), st),
				})
			}
		}
	}
	return nil
}

// auditBGP flags designed sessions whose derived state is not Established.
func auditBGP(store *fbnet.Store, rep *Report) error {
	derived, err := store.Find("DerivedBgpSession", nil)
	if err != nil {
		return err
	}
	state := map[string]string{}
	for _, d := range derived {
		state[d.String("device_name")+"|"+d.String("peer_addr")] = d.String("state")
	}
	for _, model := range []string{"BgpV6Session", "BgpV4Session"} {
		sessions, err := store.Find(model, nil)
		if err != nil {
			return err
		}
		for _, s := range sessions {
			localID := s.Ref("local_device")
			remoteAddr := s.String("remote_addr")
			if localID == 0 || remoteAddr == "" {
				continue
			}
			local, err := store.GetByID("Device", localID)
			if err != nil {
				return err
			}
			key := local.String("name") + "|" + remoteAddr
			if st, polled := state[key]; polled && st != "Established" {
				rep.Anomalies = append(rep.Anomalies, Anomaly{
					Kind: BGPDown, Device: local.String("name"),
					Detail: fmt.Sprintf("designed %s session to %s is %s", s.String("session_type"), remoteAddr, st),
				})
			}
		}
	}
	return nil
}

// auditOS flags devices whose collected OS version differs from the
// version of their assigned image.
func auditOS(store *fbnet.Store, rep *Report) error {
	derived, err := store.Find("DerivedDevice", nil)
	if err != nil {
		return err
	}
	running := map[string]string{}
	for _, d := range derived {
		running[d.String("name")] = d.String("os_version")
	}
	devices, err := store.Find("Device", fbnet.Not(fbnet.IsNull("os_image")))
	if err != nil {
		return err
	}
	for _, dev := range devices {
		img, err := store.GetByID("OsImage", dev.Ref("os_image"))
		if err != nil {
			return err
		}
		want := img.String("version")
		got, polled := running[dev.String("name")]
		if !polled {
			continue // never collected: device-silent covers it
		}
		if got != want {
			rep.Anomalies = append(rep.Anomalies, Anomaly{
				Kind: OSMismatch, Device: dev.String("name"),
				Detail: fmt.Sprintf("runs %s, design assigns image %s (%s)", got, img.String("name"), want),
			})
		}
	}
	return nil
}

// auditConfigs surfaces recorded config non-conformance.
func auditConfigs(store *fbnet.Store, rep *Report) error {
	records, err := store.Find("DerivedConfig", fbnet.Eq("conforms", false))
	if err != nil {
		return err
	}
	for _, r := range records {
		rep.Anomalies = append(rep.Anomalies, Anomaly{
			Kind: ConfigDeviates, Device: r.String("device_name"),
			Detail: "running config does not match golden config",
		})
	}
	return nil
}
