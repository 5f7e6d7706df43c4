package topo

import (
	"fmt"
	"net/netip"
	"sort"
)

// Device is one device's indexed fields.
type Device struct {
	ID                     int64
	Name, Role             string
	Site, Cluster, HW      int64
	LoopbackV4, LoopbackV6 string
}

// Pif is a physical interface: its name and linecard.
type Pif struct {
	Name     string
	Linecard int64
}

// Agg is an aggregated interface: its name and device.
type Agg struct {
	Name   string
	Device int64
}

// Circuit is a circuit's id string, status and end interfaces (0: NULL).
type Circuit struct {
	CircuitID, Status string
	A, Z              int64
}

// Prefix is a V4/V6 prefix row: its text, purpose and bound interface.
type Prefix struct {
	Prefix, Purpose string
	Interface       int64
}

// Session is a BGP session row.
type Session struct {
	Local, Remote, LocalPrefix int64
	RemoteAddr, Type           string
	LocalAS, RemoteAS          int64
}

// SessKey and PfxKey name a session or prefix row; V4 selects the v4
// model.
type (
	SessKey struct {
		V4 bool
		ID int64
	}
	PfxKey struct {
		V4 bool
		ID int64
	}
)

// End is one resolved circuit end.
type End struct {
	Device int64
	Name   string // device name
	Iface  string // physical interface name
}

type set[K comparable] map[K]struct{}

func link[K, V comparable](m map[K]set[V], k K, v V) {
	s := m[k]
	if s == nil {
		s = set[V]{}
		m[k] = s
	}
	s[v] = struct{}{}
}

func unlink[K, V comparable](m map[K]set[V], k K, v V) {
	if s := m[k]; s != nil {
		delete(s, v)
		if len(s) == 0 {
			delete(m, k)
		}
	}
}

// Topology is the index's resolved state. Its methods are only valid
// inside Index.Read/View.
type Topology struct {
	devices   map[int64]Device
	byName    map[string]int64
	hwVendor  map[int64]int64
	syntax    map[int64]string // vendor -> syntax
	sites     map[int64]string
	linecards map[int64]int64 // linecard -> device
	pifs      map[int64]Pif
	aggs      map[int64]Agg
	circuits  map[int64]Circuit
	lgroups   map[int64][2]int64
	prefixes  map[PfxKey]Prefix
	sessions  map[SessKey]Session

	lcsOf      map[int64]set[int64]  // device -> linecards
	pifsOf     map[int64]set[int64]  // linecard -> pifs
	aggsOf     map[int64]set[int64]  // device -> aggs
	pfxOf      map[int64]set[PfxKey] // agg -> prefixes
	sessOf     map[int64]set[SessKey]
	sessByPfx  map[PfxKey]set[SessKey]
	circOf     map[int64]set[int64] // pif -> circuits
	devsOfHW   map[int64]set[int64]
	hwsOf      map[int64]set[int64] // vendor -> hardware profiles
	clusterDev map[int64]set[int64]

	// p2p/external subnets: each prefix's masked subnet, the members of
	// each subnet, and one containment trie per family.
	subnetOf map[PfxKey]netip.Prefix
	members  map[netip.Prefix]set[PfxKey]
	tries    [2]*trieNode

	// Device graph of live circuits: edge is each circuit's current
	// contribution, pairs counts circuits per device pair (self pairs
	// included), adj the same without self loops; lgPairs counts link
	// groups per pair.
	edge    map[int64][2]int64
	pairs   map[[2]int64]int
	adj     map[int64]map[int64]int
	lgPairs map[[2]int64]int
}

func newTopology() *Topology {
	return &Topology{
		devices: map[int64]Device{}, byName: map[string]int64{},
		hwVendor: map[int64]int64{}, syntax: map[int64]string{}, sites: map[int64]string{},
		linecards: map[int64]int64{}, pifs: map[int64]Pif{}, aggs: map[int64]Agg{},
		circuits: map[int64]Circuit{}, lgroups: map[int64][2]int64{},
		prefixes: map[PfxKey]Prefix{}, sessions: map[SessKey]Session{},
		lcsOf: map[int64]set[int64]{}, pifsOf: map[int64]set[int64]{}, aggsOf: map[int64]set[int64]{},
		pfxOf: map[int64]set[PfxKey]{}, sessOf: map[int64]set[SessKey]{},
		sessByPfx: map[PfxKey]set[SessKey]{}, circOf: map[int64]set[int64]{},
		devsOfHW: map[int64]set[int64]{}, hwsOf: map[int64]set[int64]{},
		clusterDev: map[int64]set[int64]{},
		subnetOf:   map[PfxKey]netip.Prefix{}, members: map[netip.Prefix]set[PfxKey]{},
		tries: [2]*trieNode{{}, {}},
		edge:  map[int64][2]int64{}, pairs: map[[2]int64]int{},
		adj: map[int64]map[int64]int{}, lgPairs: map[[2]int64]int{},
	}
}

// --- reads ---

// Device returns a device by id.
func (t *Topology) Device(id int64) (Device, bool) {
	d, ok := t.devices[id]
	return d, ok
}

// DeviceByName resolves a device name to its id.
func (t *Topology) DeviceByName(name string) (int64, bool) {
	id, ok := t.byName[name]
	return id, ok
}

// DeviceName is the device's name, or "device#<id>" when it does not
// exist.
func (t *Topology) DeviceName(id int64) string {
	if d, ok := t.devices[id]; ok {
		return d.Name
	}
	return fmt.Sprintf("device#%d", id)
}

// DeviceIDs lists every device id in ascending order.
func (t *Topology) DeviceIDs() []int64 { return sortedKeys(t.devices) }

// Syntax is the device's vendor syntax ("vendor1"/"vendor2") through its
// hardware profile; ok is false when the profile or vendor is missing.
func (t *Topology) Syntax(dev int64) (string, bool) {
	d, ok := t.devices[dev]
	if !ok {
		return "", false
	}
	v, ok := t.hwVendor[d.HW]
	if !ok {
		return "", false
	}
	s, ok := t.syntax[v]
	return s, ok
}

// SiteName returns a site's name.
func (t *Topology) SiteName(id int64) (string, bool) {
	s, ok := t.sites[id]
	return s, ok
}

// ClusterIDs lists every cluster with at least one device, ascending.
func (t *Topology) ClusterIDs() []int64 { return sortedKeys(t.clusterDev) }

// ClusterDevices lists a cluster's device ids, ascending.
func (t *Topology) ClusterDevices(cluster int64) []int64 { return sortedKeys(t.clusterDev[cluster]) }

// PifDevice resolves a physical interface to its device (0 if none).
func (t *Topology) PifDevice(pif int64) int64 {
	p, ok := t.pifs[pif]
	if !ok {
		return 0
	}
	return t.linecards[p.Linecard]
}

// Pifs lists a device's physical interfaces (ids ascending).
func (t *Topology) Pifs(dev int64) []int64 {
	var out []int64
	for lc := range t.lcsOf[dev] {
		for p := range t.pifsOf[lc] {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Pif returns a physical interface.
func (t *Topology) Pif(id int64) (Pif, bool) {
	p, ok := t.pifs[id]
	return p, ok
}

// Aggs lists a device's aggregated interfaces (ids ascending).
func (t *Topology) Aggs(dev int64) []int64 { return sortedKeys(t.aggsOf[dev]) }

// Agg returns an aggregated interface.
func (t *Topology) Agg(id int64) (Agg, bool) {
	a, ok := t.aggs[id]
	return a, ok
}

// AggDevice resolves an aggregated interface to its device (0 if none).
func (t *Topology) AggDevice(agg int64) int64 { return t.aggs[agg].Device }

// Circuit returns a circuit.
func (t *Topology) Circuit(id int64) (Circuit, bool) {
	c, ok := t.circuits[id]
	return c, ok
}

// CircuitIDs lists every circuit id, ascending.
func (t *Topology) CircuitIDs() []int64 { return sortedKeys(t.circuits) }

// CircuitsOf lists the circuits with an end on the device, ascending.
func (t *Topology) CircuitsOf(dev int64) []int64 {
	seen := set[int64]{}
	for lc := range t.lcsOf[dev] {
		for p := range t.pifsOf[lc] {
			for c := range t.circOf[p] {
				seen[c] = struct{}{}
			}
		}
	}
	return sortedKeys(seen)
}

// End resolves one circuit end from its physical interface id. ok is
// false for a NULL end; err reports a ref that does not resolve.
func (t *Topology) End(pif int64) (End, bool, error) {
	if pif == 0 {
		return End{}, false, nil
	}
	p, ok := t.pifs[pif]
	if !ok {
		return End{}, false, fmt.Errorf("topo: PhysicalInterface %d does not exist", pif)
	}
	devID, ok := t.linecards[p.Linecard]
	if !ok {
		return End{}, false, fmt.Errorf("topo: Linecard %d does not exist", p.Linecard)
	}
	d, ok := t.devices[devID]
	if !ok {
		return End{}, false, fmt.Errorf("topo: Device %d does not exist", devID)
	}
	return End{Device: devID, Name: d.Name, Iface: p.Name}, true, nil
}

// Prefix returns a prefix row.
func (t *Topology) Prefix(k PfxKey) (Prefix, bool) {
	p, ok := t.prefixes[k]
	return p, ok
}

// PrefixKeys lists every prefix, v6 rows first, ids ascending.
func (t *Topology) PrefixKeys() []PfxKey {
	out := make([]PfxKey, 0, len(t.prefixes))
	for k := range t.prefixes {
		out = append(out, k)
	}
	sortPfxKeys(out)
	return out
}

// PrefixesOf lists the prefixes bound to an aggregated interface.
func (t *Topology) PrefixesOf(agg int64) []PfxKey {
	out := make([]PfxKey, 0, len(t.pfxOf[agg]))
	for k := range t.pfxOf[agg] {
		out = append(out, k)
	}
	sortPfxKeys(out)
	return out
}

// SubnetOf is the masked subnet a p2p/external prefix occupies.
func (t *Topology) SubnetOf(k PfxKey) (netip.Prefix, bool) {
	s, ok := t.subnetOf[k]
	return s, ok
}

// Subnets lists every occupied p2p/external subnet.
func (t *Topology) Subnets() []netip.Prefix {
	out := make([]netip.Prefix, 0, len(t.members))
	for s := range t.members {
		out = append(out, s)
	}
	return out
}

// Members lists the prefixes occupying a subnet, v6 rows first, ids
// ascending (the order a full store scan yields).
func (t *Topology) Members(subnet netip.Prefix) []PfxKey {
	out := make([]PfxKey, 0, len(t.members[subnet]))
	for k := range t.members[subnet] {
		out = append(out, k)
	}
	sortPfxKeys(out)
	return out
}

// Contained reports whether another occupied subnet strictly contains
// subnet.
func (t *Topology) Contained(subnet netip.Prefix) bool {
	return t.trie(subnet).hasAncestor(subnet)
}

// Session returns a session row.
func (t *Topology) Session(k SessKey) (Session, bool) {
	s, ok := t.sessions[k]
	return s, ok
}

// SessionKeys lists every session, v6 rows first, ids ascending.
func (t *Topology) SessionKeys() []SessKey {
	out := make([]SessKey, 0, len(t.sessions))
	for k := range t.sessions {
		out = append(out, k)
	}
	sortSessKeys(out)
	return out
}

// SessionsOf lists the sessions with the device on either side.
func (t *Topology) SessionsOf(dev int64) []SessKey {
	out := make([]SessKey, 0, len(t.sessOf[dev]))
	for k := range t.sessOf[dev] {
		out = append(out, k)
	}
	sortSessKeys(out)
	return out
}

// SessionsUsing lists the sessions whose local prefix is k.
func (t *Topology) SessionsUsing(k PfxKey) []SessKey {
	out := make([]SessKey, 0, len(t.sessByPfx[k]))
	for s := range t.sessByPfx[k] {
		out = append(out, s)
	}
	sortSessKeys(out)
	return out
}

// Adjacent reports whether a link group or a live circuit joins a and z.
func (t *Topology) Adjacent(a, z int64) bool {
	k := pairKey(a, z)
	return t.pairs[k] > 0 || t.lgPairs[k] > 0
}

// Neighbors calls fn for each device a live circuit joins to dev (self
// loops excluded).
func (t *Topology) Neighbors(dev int64, fn func(int64)) {
	for n := range t.adj[dev] {
		fn(n)
	}
}

func pairKey(a, z int64) [2]int64 {
	if a > z {
		a, z = z, a
	}
	return [2]int64{a, z}
}

func sortedKeys[V any](m map[int64]V) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortPfxKeys(ks []PfxKey) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].V4 != ks[j].V4 {
			return !ks[i].V4
		}
		return ks[i].ID < ks[j].ID
	})
}

func sortSessKeys(ks []SessKey) {
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].V4 != ks[j].V4 {
			return !ks[i].V4
		}
		return ks[i].ID < ks[j].ID
	})
}
