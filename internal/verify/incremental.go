package verify

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/robotron-net/robotron/internal/topo"
)

// The incremental gate. Check keeps the FBNet-only violations per key —
// one session, one device's AS claims, one subnet, one prefix, one
// circuit, one cluster — and recomputes only the keys the topology
// index's delta dirtied since its last run. The config-dependent checks
// (neighbor symmetry, scanConfig) walk only the sessions and interfaces
// of the devices in the candidate set. CheckFull is the reference; the
// two return identical Results (DESIGN.md §17 lists which row changes
// dirty which keys).

type vkeyKind uint8

const (
	kSession vkeyKind = iota
	kClaim
	kSubnet
	kPrefix
	kCircuit
	kCluster
)

type vkey struct {
	kind   vkeyKind
	v4     bool
	id     int64
	subnet netip.Prefix
}

func sessionModel(v4 bool) string {
	if v4 {
		return "BgpV4Session"
	}
	return "BgpV6Session"
}

func prefixModel(v4 bool) string {
	if v4 {
		return "V4Prefix"
	}
	return "V6Prefix"
}

// Check verifies the rendered configs (device name → config text)
// against FBNet Desired state. The configs map is the deployment's
// candidate set; invariants over FBNet alone are checked network-wide,
// but only the keys whose inputs changed since the last run are
// recomputed. The result is identical to CheckFull's.
func (c *Checker) Check(configs map[string]string) (Result, error) {
	start := time.Now()
	c.runs.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	var vs []Violation
	next, err := c.idx.Read(c.cursor, func(t *topo.Topology, d topo.Delta) error {
		var keys map[vkey]struct{}
		if d.Full || c.found == nil {
			c.found = map[vkey][]Violation{}
			keys = allKeys(t)
		} else {
			keys = dirtyKeys(t, d)
		}
		c.rechecked.Add(int64(len(keys)))
		for k := range keys {
			if found := recheck(t, k); len(found) > 0 {
				c.found[k] = found
			} else {
				delete(c.found, k)
			}
		}
		for _, found := range c.found {
			vs = append(vs, found...)
		}
		vs = append(vs, configChecks(t, configs)...)
		return nil
	})
	if err != nil {
		c.found = nil
		return Result{}, err
	}
	c.cursor = next
	return c.finish(configs, vs, start), nil
}

// allKeys lists every key a full recompute visits.
func allKeys(t *topo.Topology) map[vkey]struct{} {
	keys := map[vkey]struct{}{}
	for _, s := range t.SessionKeys() {
		keys[vkey{kind: kSession, v4: s.V4, id: s.ID}] = struct{}{}
	}
	for _, d := range t.DeviceIDs() {
		keys[vkey{kind: kClaim, id: d}] = struct{}{}
	}
	for _, s := range t.Subnets() {
		keys[vkey{kind: kSubnet, subnet: s}] = struct{}{}
	}
	for _, p := range t.PrefixKeys() {
		keys[vkey{kind: kPrefix, v4: p.V4, id: p.ID}] = struct{}{}
	}
	for _, id := range t.CircuitIDs() {
		keys[vkey{kind: kCircuit, id: id}] = struct{}{}
	}
	for _, cl := range t.ClusterIDs() {
		keys[vkey{kind: kCluster, id: cl}] = struct{}{}
	}
	return keys
}

// dirtyKeys expands the index's dirty marks into the keys whose
// violations may have changed. A device-row mark (a rename, say) dirties
// everything that names the device: its sessions and AS claims, the
// prefixes and subnets on its interfaces, and its cluster.
func dirtyKeys(t *topo.Topology, d topo.Delta) map[vkey]struct{} {
	keys := map[vkey]struct{}{}
	add := func(k vkey) { keys[k] = struct{}{} }
	prefix := func(p topo.PfxKey) {
		add(vkey{kind: kPrefix, v4: p.V4, id: p.ID})
		if s, ok := t.SubnetOf(p); ok {
			add(vkey{kind: kSubnet, subnet: s})
		}
		for _, s := range t.SessionsUsing(p) {
			add(vkey{kind: kSession, v4: s.V4, id: s.ID})
		}
	}
	for m := range d.Keys {
		switch m.Kind {
		case topo.KDevice:
			add(vkey{kind: kClaim, id: m.ID})
			for _, s := range t.SessionsOf(m.ID) {
				add(vkey{kind: kSession, v4: s.V4, id: s.ID})
			}
			for _, agg := range t.Aggs(m.ID) {
				for _, p := range t.PrefixesOf(agg) {
					prefix(p)
				}
			}
			if dev, ok := t.Device(m.ID); ok && dev.Cluster != 0 {
				add(vkey{kind: kCluster, id: dev.Cluster})
			}
		case topo.KAttached:
			// The device's sessions or adjacencies moved: its AS claims
			// and the subnets ending on it may change verdict.
			add(vkey{kind: kClaim, id: m.ID})
			for _, agg := range t.Aggs(m.ID) {
				for _, p := range t.PrefixesOf(agg) {
					if s, ok := t.SubnetOf(p); ok {
						add(vkey{kind: kSubnet, subnet: s})
					}
				}
			}
		case topo.KSession:
			add(vkey{kind: kSession, v4: m.V4, id: m.ID})
			if s, ok := t.Session(topo.SessKey{V4: m.V4, ID: m.ID}); ok {
				add(vkey{kind: kClaim, id: s.Local})
				add(vkey{kind: kClaim, id: s.Remote})
			}
		case topo.KPrefix:
			prefix(topo.PfxKey{V4: m.V4, ID: m.ID})
		case topo.KSubnet:
			add(vkey{kind: kSubnet, subnet: m.Subnet})
		case topo.KCircuit:
			add(vkey{kind: kCircuit, id: m.ID})
		case topo.KCluster:
			add(vkey{kind: kCluster, id: m.ID})
		}
	}
	return keys
}

// recheck recomputes one key's FBNet-only violations, with the same
// counterexamples CheckFull builds.
func recheck(t *topo.Topology, k vkey) []Violation {
	switch k.kind {
	case kSession:
		return recheckSession(t, topo.SessKey{V4: k.v4, ID: k.id})
	case kClaim:
		return recheckClaims(t, k.id)
	case kSubnet:
		return recheckSubnet(t, k.subnet)
	case kPrefix:
		return recheckPrefix(t, topo.PfxKey{V4: k.v4, ID: k.id})
	case kCircuit:
		return recheckCircuit(t, k.id)
	case kCluster:
		return recheckCluster(t, k.id)
	}
	return nil
}

// recheckSession is checkBGPSymmetry's per-session verdict plus
// checkOrphanRefs' local-prefix binding check.
func recheckSession(t *topo.Topology, k topo.SessKey) []Violation {
	s, ok := t.Session(k)
	if !ok {
		return nil
	}
	model := sessionModel(k.V4)
	var vs []Violation
	l, r := s.Local, s.Remote
	la, ra := s.LocalAS, s.RemoteAS
	if l != 0 && l == r {
		vs = append(vs, Violation{
			Invariant: BGPSymmetry, Device: t.DeviceName(l), Model: model, ID: k.ID,
			Detail: "session peers with itself",
		})
	} else {
		switch s.Type {
		case "ibgp":
			if la != ra {
				vs = append(vs, Violation{
					Invariant: BGPSymmetry, Device: t.DeviceName(l), Model: model, ID: k.ID,
					Detail: fmt.Sprintf("iBGP session with asymmetric AS numbers %d != %d", la, ra),
					needle: strconv.FormatInt(ra, 10),
				})
			}
		case "ebgp":
			if l != 0 && r != 0 && la == ra {
				vs = append(vs, Violation{
					Invariant: BGPSymmetry, Device: t.DeviceName(l), Model: model, ID: k.ID,
					Detail: fmt.Sprintf("eBGP session between %s and %s inside one AS %d",
						t.DeviceName(l), t.DeviceName(r), la),
					needle: strconv.FormatInt(la, 10),
				})
			}
		}
	}
	if s.LocalPrefix == 0 || l == 0 {
		return vs
	}
	pfx, ok := t.Prefix(topo.PfxKey{V4: k.V4, ID: s.LocalPrefix})
	if !ok {
		return append(vs, Violation{
			Invariant: OrphanRef, Device: t.DeviceName(l), Model: model, ID: k.ID,
			Detail: fmt.Sprintf("session references local prefix #%d which no longer exists", s.LocalPrefix),
		})
	}
	if t.AggDevice(pfx.Interface) != l {
		vs = append(vs, Violation{
			Invariant: OrphanRef, Device: t.DeviceName(l), Model: model, ID: k.ID,
			Detail: fmt.Sprintf("session's local prefix %s is not addressed on %s",
				pfx.Prefix, t.DeviceName(l)),
			needle: addrOf(pfx.Prefix),
		})
	}
	return vs
}

// recheckClaims is checkBGPSymmetry's per-device AS-claim verdict, for
// both session types.
func recheckClaims(t *topo.Topology, dev int64) []Violation {
	if _, ok := t.Device(dev); !ok {
		return nil
	}
	byType := map[string]map[int64]int{}
	claim := func(sType string, as int64) {
		if as == 0 {
			return
		}
		if byType[sType] == nil {
			byType[sType] = map[int64]int{}
		}
		byType[sType][as]++
	}
	for _, k := range t.SessionsOf(dev) {
		s, _ := t.Session(k)
		if s.Local == 0 || s.Remote == 0 || s.Local == s.Remote {
			continue
		}
		if s.Local == dev {
			claim(s.Type, s.LocalAS)
		}
		if s.Remote == dev {
			claim(s.Type, s.RemoteAS)
		}
	}
	var vs []Violation
	for _, sType := range []string{"ebgp", "ibgp"} {
		if v, ok := claimViolation(byType[sType], dev, t.DeviceName(dev), sType); ok {
			vs = append(vs, v)
		}
	}
	return vs
}

// recheckSubnet is checkP2PConsistency's per-subnet verdict: the ends of
// a p2p subnet, and its overlap with the rest of the allocation. With
// the pool error naming only the prefix, a subnet is flagged exactly
// when another occupied subnet strictly contains it (DESIGN.md §17).
func recheckSubnet(t *topo.Topology, subnet netip.Prefix) []Violation {
	members := t.Members(subnet)
	if len(members) == 0 {
		return nil
	}
	var ends []p2pEnd
	for _, k := range members {
		p, _ := t.Prefix(k)
		if p.Purpose != "p2p" {
			continue
		}
		pfx, _ := netip.ParsePrefix(p.Prefix)
		ends = append(ends, p2pEnd{
			dev: t.AggDevice(p.Interface), addr: pfx.Addr(), prefix: pfx,
			model: prefixModel(k.V4), id: k.ID,
		})
	}
	var vs []Violation
	if len(ends) > 0 {
		vs = endViolations(subnet, ends, t.DeviceName, t.Adjacent)
	}
	if t.Contained(subnet) {
		first, _ := t.Prefix(members[0])
		vs = append(vs, overlapViolation(subnet, t.DeviceName(t.AggDevice(first.Interface))))
	}
	return vs
}

// recheckPrefix covers the per-prefix checks: a stored p2p/external
// prefix must parse and stay bound to an interface on a device.
func recheckPrefix(t *topo.Topology, k topo.PfxKey) []Violation {
	p, ok := t.Prefix(k)
	if !ok || (p.Purpose != "p2p" && p.Purpose != "external") {
		return nil
	}
	model := prefixModel(k.V4)
	var vs []Violation
	if _, err := netip.ParsePrefix(p.Prefix); err != nil {
		vs = append(vs, Violation{
			Invariant: P2PConsistency, Device: t.DeviceName(t.AggDevice(p.Interface)),
			Model: model, ID: k.ID,
			Detail: fmt.Sprintf("stored prefix %q does not parse: %v", p.Prefix, err),
		})
	}
	if p.Interface == 0 {
		vs = append(vs, Violation{
			Invariant: OrphanRef, Model: model, ID: k.ID,
			Detail: fmt.Sprintf("%s prefix %s is bound to no interface", p.Purpose, p.Prefix),
			needle: addrOf(p.Prefix),
		})
	} else if t.AggDevice(p.Interface) == 0 {
		vs = append(vs, Violation{
			Invariant: OrphanRef, Model: model, ID: k.ID,
			Detail: fmt.Sprintf("%s prefix %s is bound to interface %d which resolves to no device",
				p.Purpose, p.Prefix, p.Interface),
			needle: addrOf(p.Prefix),
		})
	}
	return vs
}

func recheckCircuit(t *topo.Topology, id int64) []Violation {
	c, ok := t.Circuit(id)
	if !ok || (c.Status != "provisioning" && c.Status != "production") || (c.A != 0 && c.Z != 0) {
		return nil
	}
	return []Violation{orphanCircuit(id, c.CircuitID, c.Status, c.A == 0)}
}

// recheckCluster is checkReachability for one cluster's devices.
func recheckCluster(t *topo.Topology, cluster int64) []Violation {
	devs := t.ClusterDevices(cluster)
	max := 0
	for _, id := range devs {
		d, _ := t.Device(id)
		if rank, ok := roleRank[d.Role]; ok && rank > max {
			max = rank
		}
	}
	var vs []Violation
	for _, id := range devs {
		d, _ := t.Device(id)
		rank, ok := roleRank[d.Role]
		if !ok || rank >= max || reachesUp(t, id, cluster, rank) {
			continue
		}
		vs = append(vs, unreachable(id, d.Name, d.Role))
	}
	return vs
}

// reachesUp is reaches over the index's circuit graph.
func reachesUp(t *topo.Topology, start, cluster int64, rank int) bool {
	seen := map[int64]bool{start: true}
	queue := []int64{start}
	found := false
	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		t.Neighbors(cur, func(next int64) {
			if found || seen[next] {
				return
			}
			seen[next] = true
			if d, ok := t.Device(next); ok && d.Cluster == cluster {
				if r, ok := roleRank[d.Role]; ok && r > rank {
					found = true
					return
				}
			}
			queue = append(queue, next)
		})
	}
	return found
}

// configChecks runs the checks that read the candidate configs: for
// every device in the set, its rendered neighbors and interfaces against
// FBNet, and the neighbor statements each of its sessions needs on both
// ends.
func configChecks(t *topo.Topology, configs map[string]string) []Violation {
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	sort.Strings(names)
	var vs []Violation
	sessions := map[topo.SessKey]struct{}{}
	for _, name := range names {
		dev, ok := t.DeviceByName(name)
		if !ok {
			vs = append(vs, Violation{
				Invariant: OrphanRef, Device: name,
				Detail: "config rendered for a device that does not exist in FBNet",
			})
			continue
		}
		vs = append(vs, scanConfigIndexed(t, dev, name, configs[name])...)
		for _, k := range t.SessionsOf(dev) {
			sessions[k] = struct{}{}
		}
	}
	for k := range sessions {
		s, _ := t.Session(k)
		l, r := s.Local, s.Remote
		if l == 0 || r == 0 || l == r {
			continue
		}
		lName, rName := t.DeviceName(l), t.DeviceName(r)
		model := sessionModel(k.V4)
		if cfg, ok := configs[lName]; ok {
			if s.RemoteAddr != "" && !containsAddr(cfg, s.RemoteAddr) {
				vs = append(vs, missingNeighbor(lName, model, k.ID, s.RemoteAddr, "to", rName))
			}
		}
		if cfg, ok := configs[rName]; ok {
			if laddr := localAddr(t, k.V4, s); laddr != "" && !containsAddr(cfg, laddr) {
				vs = append(vs, missingNeighbor(rName, model, k.ID, laddr, "from", lName))
			}
		}
	}
	return vs
}

// localAddr is localSideAddr over the index.
func localAddr(t *topo.Topology, v4 bool, s topo.Session) string {
	if s.LocalPrefix != 0 {
		pfx, ok := t.Prefix(topo.PfxKey{V4: v4, ID: s.LocalPrefix})
		if !ok {
			return ""
		}
		return addrOf(pfx.Prefix)
	}
	local, ok := t.Device(s.Local)
	if !ok {
		return ""
	}
	if v4 {
		return addrOf(local.LoopbackV4)
	}
	return addrOf(local.LoopbackV6)
}

// scanConfigIndexed is scanConfig over the index.
func scanConfigIndexed(t *topo.Topology, dev int64, name, cfg string) []Violation {
	valid := map[string]bool{"lo0": true}
	for _, p := range t.Pifs(dev) {
		pif, _ := t.Pif(p)
		valid[pif.Name] = true
	}
	for _, a := range t.Aggs(dev) {
		agg, _ := t.Agg(a)
		valid[agg.Name] = true
	}
	expected := map[string]bool{}
	for _, k := range t.SessionsOf(dev) {
		s, _ := t.Session(k)
		if s.Local == dev && s.RemoteAddr != "" {
			expected[s.RemoteAddr] = true
		}
		if s.Remote == dev {
			if addr := localAddr(t, k.V4, s); addr != "" {
				expected[addr] = true
			}
		}
	}
	syntax, _ := t.Syntax(dev)
	return scanLines(name, cfg, syntax, valid, expected)
}

// claimViolation reports a device claiming more than one AS across its
// internal sessions of one type.
func claimViolation(byAS map[int64]int, devID int64, devName, sType string) (Violation, bool) {
	if len(byAS) <= 1 {
		return Violation{}, false
	}
	var asns []int64
	for as := range byAS {
		asns = append(asns, as)
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	// The minority AS is the likeliest flip; point the hunk at it.
	minority := asns[0]
	for _, as := range asns {
		if byAS[as] < byAS[minority] {
			minority = as
		}
	}
	parts := make([]string, len(asns))
	for i, as := range asns {
		parts[i] = fmt.Sprintf("%d (%d sessions)", as, byAS[as])
	}
	return Violation{
		Invariant: BGPSymmetry, Device: devName, Model: "Device", ID: devID,
		Detail: fmt.Sprintf("device claims %d different AS numbers across internal %s sessions: %s",
			len(asns), sType, strings.Join(parts, ", ")),
		needle: strconv.FormatInt(minority, 10),
	}, true
}

// p2pEnd is one addressed end of a p2p subnet.
type p2pEnd struct {
	dev    int64
	addr   netip.Addr
	prefix netip.Prefix
	model  string
	id     int64
}

// endViolations checks that a p2p subnet has exactly two ends on two
// adjacent devices.
func endViolations(subnet netip.Prefix, ends []p2pEnd, devName func(int64) string, adjacent func(a, z int64) bool) []Violation {
	switch {
	case len(ends) == 1:
		e := ends[0]
		return []Violation{{
			Invariant: P2PConsistency, Device: devName(e.dev), Model: e.model, ID: e.id,
			Detail: fmt.Sprintf("p2p subnet %s is addressed on only one end (%s on %s)",
				subnet, e.prefix, devName(e.dev)),
			needle: e.addr.String(),
		}}
	case len(ends) > 2:
		names := make([]string, len(ends))
		for i, e := range ends {
			names[i] = devName(e.dev)
		}
		sort.Strings(names)
		return []Violation{{
			Invariant: P2PConsistency, Device: names[0], Model: ends[0].model, ID: ends[0].id,
			Detail: fmt.Sprintf("p2p subnet %s is addressed on %d interfaces (%s); a point-to-point subnet has exactly two ends",
				subnet, len(ends), strings.Join(names, ", ")),
			needle: subnet.Addr().String(),
		}}
	}
	a, z := ends[0], ends[1]
	if a.dev == z.dev {
		return []Violation{{
			Invariant: P2PConsistency, Device: devName(a.dev), Model: a.model, ID: a.id,
			Detail: fmt.Sprintf("both ends of p2p subnet %s land on device %s", subnet, devName(a.dev)),
			needle: a.addr.String(),
		}}
	}
	if !adjacent(a.dev, z.dev) {
		return []Violation{{
			Invariant: P2PConsistency, Device: devName(a.dev), Model: a.model, ID: a.id,
			Detail: fmt.Sprintf("p2p subnet %s spans %s and %s, which share no circuit — address reuse across circuits",
				subnet, devName(a.dev), devName(z.dev)),
			needle: a.addr.String(),
		}}
	}
	return nil
}

// overlapViolation is the pool-replay verdict for a subnet another
// allocation swallows.
func overlapViolation(subnet netip.Prefix, owner string) Violation {
	return Violation{
		Invariant: P2PConsistency, Device: owner,
		Detail: fmt.Sprintf("subnet %s overlaps another circuit's allocation: ipam: %s conflicts with an existing allocation",
			subnet, subnet),
		needle: subnet.Addr().String(),
	}
}

func orphanCircuit(id int64, circuitID, status string, aSide bool) Violation {
	missingDev, missingIf := parseCircuitEnd(circuitID, aSide)
	return Violation{
		Invariant: OrphanRef, Device: missingDev, Model: "Circuit", ID: id,
		Detail: fmt.Sprintf("%s circuit %s lost endpoint %s:%s — interface no longer resolves in FBNet",
			status, circuitID, missingDev, missingIf),
		needle: missingIf,
	}
}

func unreachable(id int64, name, role string) Violation {
	return Violation{
		Invariant: Reachability, Device: name, Model: "Device", ID: id,
		Detail: fmt.Sprintf("%s (%s) has no intact circuit path to its aggregation layer", name, role),
	}
}

func missingNeighbor(dev, model string, id int64, addr, dir, peer string) Violation {
	return Violation{
		Invariant: BGPSymmetry, Device: dev, Model: model, ID: id,
		Detail: fmt.Sprintf("rendered config omits neighbor %s (session %s %s)", addr, dir, peer),
		needle: addr,
	}
}
