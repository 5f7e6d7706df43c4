package topo

import (
	"net/netip"

	"github.com/robotron-net/robotron/internal/relstore"
)

func vStr(v any) string { s, _ := v.(string); return s }
func vInt(v any) int64  { n, _ := v.(int64); return n }

// image resolves an entry against the row's current indexed state:
// had/old is the pre-image, has the existence of the post-image, and
// overlay applies the entry's values onto a post-image that starts from
// old for an update and from zero for an insert.
func image[T any](rows map[int64]T, op relstore.Op, id int64) (old T, had, has, fresh bool) {
	old, had = rows[id]
	switch op {
	case relstore.OpInsert:
		return old, had, true, true
	case relstore.OpUpdate:
		return old, had, had, false
	}
	return old, had, false, false
}

// apply folds one binlog entry of an indexed table into the topology.
func (x *Index) apply(op relstore.Op, table string, id int64, vals map[string]any) {
	switch table {
	case "Device":
		x.applyDevice(op, id, vals)
	case "HardwareProfile":
		x.applyHW(op, id, vals)
	case "Vendor":
		x.applyVendor(op, id, vals)
	case "Site":
		if op == relstore.OpDelete {
			delete(x.t.sites, id)
		} else if v, ok := vals["name"]; ok {
			x.t.sites[id] = vStr(v)
		}
	case "Linecard":
		x.applyLinecard(op, id, vals)
	case "PhysicalInterface":
		x.applyPif(op, id, vals)
	case "AggregatedInterface":
		x.applyAgg(op, id, vals)
	case "Circuit":
		x.applyCircuit(op, id, vals)
	case "LinkGroup":
		x.applyLinkGroup(op, id, vals)
	case "V6Prefix", "V4Prefix":
		x.applyPrefix(op, PfxKey{V4: table == "V4Prefix", ID: id}, vals)
	case "BgpV6Session", "BgpV4Session":
		x.applySession(op, SessKey{V4: table == "BgpV4Session", ID: id}, vals)
	}
}

func (x *Index) applyDevice(op relstore.Op, id int64, vals map[string]any) {
	t := x.t
	old, had, has, fresh := image(t.devices, op, id)
	if !had && !has {
		return
	}
	nw := old
	if fresh {
		nw = Device{ID: id}
	}
	for col, v := range vals {
		switch col {
		case "name":
			nw.Name = vStr(v)
		case "role":
			nw.Role = vStr(v)
		case "site":
			nw.Site = vInt(v)
		case "cluster":
			nw.Cluster = vInt(v)
		case "hw_profile":
			nw.HW = vInt(v)
		case "loopback_v4":
			nw.LoopbackV4 = vStr(v)
		case "loopback_v6":
			nw.LoopbackV6 = vStr(v)
		}
	}
	if had {
		if t.byName[old.Name] == id {
			delete(t.byName, old.Name)
		}
		unlink(t.devsOfHW, old.HW, id)
		if old.Cluster != 0 {
			unlink(t.clusterDev, old.Cluster, id)
		}
		delete(t.devices, id)
		x.markCluster(old.Cluster)
	}
	if has {
		t.devices[id] = nw
		t.byName[nw.Name] = id
		link(t.devsOfHW, nw.HW, id)
		if nw.Cluster != 0 {
			link(t.clusterDev, nw.Cluster, id)
		}
		x.markCluster(nw.Cluster)
	}
	x.markDevice(id)
}

func (x *Index) applyHW(op relstore.Op, id int64, vals map[string]any) {
	t := x.t
	old, had := t.hwVendor[id]
	nw, has := old, op != relstore.OpDelete
	if op == relstore.OpUpdate && !had {
		return
	}
	if v, ok := vals["vendor"]; ok {
		nw = vInt(v)
	}
	if had {
		unlink(t.hwsOf, old, id)
		delete(t.hwVendor, id)
	}
	if has {
		t.hwVendor[id] = nw
		link(t.hwsOf, nw, id)
	}
	for d := range t.devsOfHW[id] {
		x.markDevice(d)
	}
}

func (x *Index) applyVendor(op relstore.Op, id int64, vals map[string]any) {
	t := x.t
	if op == relstore.OpDelete {
		delete(t.syntax, id)
	} else if v, ok := vals["syntax"]; ok {
		t.syntax[id] = vStr(v)
	} else if op == relstore.OpInsert {
		t.syntax[id] = ""
	}
	for hw := range t.hwsOf[id] {
		for d := range t.devsOfHW[hw] {
			x.markDevice(d)
		}
	}
}

func (x *Index) applyLinecard(op relstore.Op, id int64, vals map[string]any) {
	t := x.t
	old, had, has, _ := image(t.linecards, op, id)
	if !had && !has {
		return
	}
	nw := old
	if v, ok := vals["device"]; ok {
		nw = vInt(v)
	}
	if had {
		unlink(t.lcsOf, old, id)
		delete(t.linecards, id)
		x.markAttached(old)
	}
	if has {
		t.linecards[id] = nw
		link(t.lcsOf, nw, id)
		x.markAttached(nw)
	}
	for p := range t.pifsOf[id] {
		for c := range t.circOf[p] {
			x.refreshCircuit(c)
		}
	}
}

func (x *Index) applyPif(op relstore.Op, id int64, vals map[string]any) {
	t := x.t
	old, had, has, fresh := image(t.pifs, op, id)
	if !had && !has {
		return
	}
	nw := old
	if fresh {
		nw = Pif{}
	}
	for col, v := range vals {
		switch col {
		case "name":
			nw.Name = vStr(v)
		case "linecard":
			nw.Linecard = vInt(v)
		}
	}
	if had {
		unlink(t.pifsOf, old.Linecard, id)
		delete(t.pifs, id)
		x.markAttached(t.linecards[old.Linecard])
	}
	if has {
		t.pifs[id] = nw
		link(t.pifsOf, nw.Linecard, id)
		x.markAttached(t.linecards[nw.Linecard])
	}
	for c := range t.circOf[id] {
		x.refreshCircuit(c)
	}
}

func (x *Index) applyAgg(op relstore.Op, id int64, vals map[string]any) {
	t := x.t
	old, had, has, fresh := image(t.aggs, op, id)
	if !had && !has {
		return
	}
	nw := old
	if fresh {
		nw = Agg{}
	}
	for col, v := range vals {
		switch col {
		case "name":
			nw.Name = vStr(v)
		case "device":
			nw.Device = vInt(v)
		}
	}
	if had {
		unlink(t.aggsOf, old.Device, id)
		delete(t.aggs, id)
		x.markAttached(old.Device)
	}
	if has {
		t.aggs[id] = nw
		link(t.aggsOf, nw.Device, id)
		x.markAttached(nw.Device)
	}
	for k := range t.pfxOf[id] {
		x.touchPrefix(k)
	}
}

func (x *Index) applyCircuit(op relstore.Op, id int64, vals map[string]any) {
	t := x.t
	old, had, has, fresh := image(t.circuits, op, id)
	if !had && !has {
		return
	}
	nw := old
	if fresh {
		nw = Circuit{}
	}
	for col, v := range vals {
		switch col {
		case "circuit_id":
			nw.CircuitID = vStr(v)
		case "status":
			nw.Status = vStr(v)
		case "a_interface":
			nw.A = vInt(v)
		case "z_interface":
			nw.Z = vInt(v)
		}
	}
	if had {
		unlink(t.circOf, old.A, id)
		unlink(t.circOf, old.Z, id)
		delete(t.circuits, id)
	}
	if has {
		t.circuits[id] = nw
		if nw.A != 0 {
			link(t.circOf, nw.A, id)
		}
		if nw.Z != 0 {
			link(t.circOf, nw.Z, id)
		}
	}
	x.refreshCircuit(id)
}

// refreshCircuit recomputes a circuit's edge in the device graph from
// its current row and end resolution, and marks the circuit and the
// devices of its old and new ends.
func (x *Index) refreshCircuit(id int64) {
	t := x.t
	x.mark(Key{Kind: KCircuit, ID: id})
	old, had := t.edge[id]
	var nw [2]int64
	has := false
	if c, ok := t.circuits[id]; ok && c.Status != "decommissioned" {
		a, z := t.PifDevice(c.A), t.PifDevice(c.Z)
		if a != 0 && z != 0 {
			nw, has = [2]int64{a, z}, true
		}
	}
	if had {
		x.markAttached(old[0])
		x.markAttached(old[1])
	}
	if has {
		x.markAttached(nw[0])
		x.markAttached(nw[1])
	}
	if had == has && old == nw {
		return
	}
	if had {
		delete(t.edge, id)
		k := pairKey(old[0], old[1])
		if t.pairs[k]--; t.pairs[k] == 0 {
			delete(t.pairs, k)
		}
		if old[0] != old[1] {
			x.edgeRemoved(old[0], old[1])
		}
	}
	if has {
		t.edge[id] = nw
		t.pairs[pairKey(nw[0], nw[1])]++
		if nw[0] != nw[1] {
			x.edgeAdded(nw[0], nw[1])
		}
	}
}

func (x *Index) applyLinkGroup(op relstore.Op, id int64, vals map[string]any) {
	t := x.t
	old, had, has, fresh := image(t.lgroups, op, id)
	if !had && !has {
		return
	}
	nw := old
	if fresh {
		nw = [2]int64{}
	}
	for col, v := range vals {
		switch col {
		case "a_device":
			nw[0] = vInt(v)
		case "z_device":
			nw[1] = vInt(v)
		}
	}
	if had {
		delete(t.lgroups, id)
		if old[0] != 0 && old[1] != 0 {
			k := pairKey(old[0], old[1])
			if t.lgPairs[k]--; t.lgPairs[k] == 0 {
				delete(t.lgPairs, k)
			}
		}
		x.markAttached(old[0])
		x.markAttached(old[1])
	}
	if has {
		t.lgroups[id] = nw
		if nw[0] != 0 && nw[1] != 0 {
			t.lgPairs[pairKey(nw[0], nw[1])]++
		}
		x.markAttached(nw[0])
		x.markAttached(nw[1])
	}
}

func (x *Index) applyPrefix(op relstore.Op, k PfxKey, vals map[string]any) {
	t := x.t
	old, had := t.prefixes[k]
	has := op != relstore.OpDelete && (had || op == relstore.OpInsert)
	if !had && !has {
		return
	}
	nw := old
	if op == relstore.OpInsert {
		nw = Prefix{}
	}
	for col, v := range vals {
		switch col {
		case "prefix":
			nw.Prefix = vStr(v)
		case "purpose":
			nw.Purpose = vStr(v)
		case "interface":
			nw.Interface = vInt(v)
		}
	}
	if had {
		unlink(t.pfxOf, old.Interface, k)
		delete(t.prefixes, k)
		x.markAttached(t.aggs[old.Interface].Device)
	}
	if has {
		t.prefixes[k] = nw
		link(t.pfxOf, nw.Interface, k)
		x.markAttached(t.aggs[nw.Interface].Device)
	}
	x.resubnet(k)
	x.touchPrefix(k)
}

// touchPrefix marks a prefix, its subnet and the sessions using it.
func (x *Index) touchPrefix(k PfxKey) {
	x.mark(Key{Kind: KPrefix, V4: k.V4, ID: k.ID})
	if s, ok := x.t.subnetOf[k]; ok {
		x.mark(Key{Kind: KSubnet, Subnet: s})
	}
	for s := range x.t.sessByPfx[k] {
		x.mark(Key{Kind: KSession, V4: s.V4, ID: s.ID})
	}
}

// resubnet moves a prefix between subnets after its row changed. A
// subnet that appears or disappears dirties every subnet it strictly
// contains: their overlap verdict may flip.
func (x *Index) resubnet(k PfxKey) {
	t := x.t
	old, had := t.subnetOf[k]
	var nw netip.Prefix
	has := false
	if p, ok := t.prefixes[k]; ok && (p.Purpose == "p2p" || p.Purpose == "external") {
		if pfx, err := netip.ParsePrefix(p.Prefix); err == nil {
			nw, has = pfx.Masked(), true
		}
	}
	if had {
		x.mark(Key{Kind: KSubnet, Subnet: old})
	}
	if had == has && old == nw {
		return
	}
	if had {
		delete(t.subnetOf, k)
		unlink(t.members, old, k)
		if len(t.members[old]) == 0 {
			t.trie(old).remove(old)
			x.markContained(old)
		}
	}
	if has {
		t.subnetOf[k] = nw
		fresh := len(t.members[nw]) == 0
		link(t.members, nw, k)
		if fresh {
			t.trie(nw).insert(nw)
			x.markContained(nw)
		}
		x.mark(Key{Kind: KSubnet, Subnet: nw})
	}
}

func (x *Index) markContained(s netip.Prefix) {
	if x.quiet {
		return
	}
	x.t.trie(s).descendants(s, func(d netip.Prefix) {
		x.mark(Key{Kind: KSubnet, Subnet: d})
	})
}

func (x *Index) applySession(op relstore.Op, k SessKey, vals map[string]any) {
	t := x.t
	old, had := t.sessions[k]
	has := op != relstore.OpDelete && (had || op == relstore.OpInsert)
	if !had && !has {
		return
	}
	nw := old
	if op == relstore.OpInsert {
		nw = Session{}
	}
	for col, v := range vals {
		switch col {
		case "local_device":
			nw.Local = vInt(v)
		case "remote_device":
			nw.Remote = vInt(v)
		case "local_prefix":
			nw.LocalPrefix = vInt(v)
		case "remote_addr":
			nw.RemoteAddr = vStr(v)
		case "session_type":
			nw.Type = vStr(v)
		case "local_as":
			nw.LocalAS = vInt(v)
		case "remote_as":
			nw.RemoteAS = vInt(v)
		}
	}
	pk := func(s Session) PfxKey { return PfxKey{V4: k.V4, ID: s.LocalPrefix} }
	if had {
		unlink(t.sessOf, old.Local, k)
		unlink(t.sessOf, old.Remote, k)
		unlink(t.sessByPfx, pk(old), k)
		delete(t.sessions, k)
		x.markAttached(old.Local)
		x.markAttached(old.Remote)
	}
	if has {
		t.sessions[k] = nw
		if nw.Local != 0 {
			link(t.sessOf, nw.Local, k)
		}
		if nw.Remote != 0 {
			link(t.sessOf, nw.Remote, k)
		}
		if nw.LocalPrefix != 0 {
			link(t.sessByPfx, pk(nw), k)
		}
		x.markAttached(nw.Local)
		x.markAttached(nw.Remote)
	}
	x.mark(Key{Kind: KSession, V4: k.V4, ID: k.ID})
}
