package main

import (
	"fmt"
	"sort"

	"github.com/robotron-net/robotron/internal/fbnet"
)

// findCircuit returns the object id of the circuit from a to z.
func (w *world) findCircuit(a, z string) (int64, error) {
	c, err := w.r.Store.FindOne("Circuit", fbnet.And(
		fbnet.Contains("circuit_id", a+":"), fbnet.Contains("circuit_id", "--"+z+":")))
	if err != nil {
		return 0, fmt.Errorf("circuit %s--%s: %w", a, z, err)
	}
	return c.ID, nil
}

// circuitAEnd returns a circuit's id string and its A-side interface.
func (w *world) circuitAEnd(id int64) (circuitID, aIf string, err error) {
	c, err := w.r.Store.GetByID("Circuit", id)
	if err != nil {
		return "", "", err
	}
	pif, err := w.r.Store.GetByID("PhysicalInterface", c.Ref("a_interface"))
	if err != nil {
		return "", "", err
	}
	return c.String("circuit_id"), pif.String("name"), nil
}

// end is one side of a cable.
type end struct{ dev, ifc string }

// circuitEnds resolves both ends of a circuit to device and interface.
func (w *world) circuitEnds(c fbnet.Object) (a, z end, err error) {
	for i, field := range []string{"a_interface", "z_interface"} {
		pif, err := w.r.Store.GetByID("PhysicalInterface", c.Ref(field))
		if err != nil {
			return end{}, end{}, err
		}
		lc, err := w.r.Store.GetByID("Linecard", pif.Ref("linecard"))
		if err != nil {
			return end{}, end{}, err
		}
		d, err := w.r.Store.GetByID("Device", lc.Ref("device"))
		if err != nil {
			return end{}, end{}, err
		}
		e := end{d.String("name"), pif.String("name")}
		if i == 0 {
			a = e
		} else {
			z = e
		}
	}
	return a, z, nil
}

// popCircuits lists the POP clusters' circuits sorted by circuit id.
func (w *world) popCircuits() ([]fbnet.Object, error) {
	cs, err := w.r.Store.Find("Circuit", fbnet.Contains("circuit_id", ".pop"))
	if err != nil {
		return nil, err
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].String("circuit_id") < cs[j].String("circuit_id") })
	return cs, nil
}

// verifiedDevices sums the devices the verify gate checked over its
// operational events newer than sinceID, and returns how many there were
// and the newest id.
func (w *world) verifiedDevices(sinceID int64) (devices, gates int, last int64, err error) {
	evs, err := w.r.Store.Find("OperationalEvent", fbnet.Eq("kind", "verify-gate"))
	if err != nil {
		return 0, 0, 0, err
	}
	last = sinceID
	for _, ev := range evs {
		if ev.ID <= sinceID {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(ev.String("detail"), "verified %d devices", &n); err != nil {
			return 0, 0, 0, fmt.Errorf("verify-gate event %q: %w", ev.String("detail"), err)
		}
		devices += n
		gates++
		last = max(last, ev.ID)
	}
	return devices, gates, last, nil
}
