// Package verify implements Robotron's pre-deploy intent verification
// gate: a network-wide invariant checker that runs between config
// generation and deployment (between §5.2 and §5.3 of SIGCOMM '16) and
// rejects a deployment with a concrete counterexample instead of letting
// the fleet discover the damage post-commit.
//
// The paper's core claim is that top-down generation prevents
// configuration error, and its §1 war stories enumerate what that error
// looks like: iBGP sessions configured on one peer only, circuits
// "misconfigured with conflicting IPs", p2p endpoints in different
// subnets, references to devices that no longer exist. Each of those
// classes is an invariant here:
//
//   - BGPSymmetry: every session is consistent on *both* endpoints —
//     session type, AS numbers, and the neighbor statements each side's
//     rendered config must carry.
//   - P2PConsistency: both ends of a point-to-point subnet exist, land on
//     adjacent devices, and no subnet is reused across circuits (checked
//     by replaying every allocation into a fresh ipam pool).
//   - Reachability: every cluster device retains an intact circuit path
//     to its aggregation layer in the derived topology.
//   - OrphanRef: every circuit endpoint, prefix binding, session prefix,
//     and interface or neighbor named in a rendered config resolves in
//     FBNet.
//
// A violation carries the offending device and, when that device's config
// is part of the checked set, the confdiff hunk of the pending change
// around the offending lines — the counterexample an engineer reviews.
package verify

import (
	"fmt"
	"net/netip"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/robotron-net/robotron/internal/confdiff"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/ipam"
	"github.com/robotron-net/robotron/internal/telemetry"
	"github.com/robotron-net/robotron/internal/topo"
)

// Invariant names one checked property class.
type Invariant string

const (
	BGPSymmetry    Invariant = "bgp-symmetry"
	P2PConsistency Invariant = "p2p-consistency"
	Reachability   Invariant = "reachability"
	OrphanRef      Invariant = "orphan-ref"
)

// Invariants lists every invariant the gate checks.
var Invariants = []Invariant{BGPSymmetry, P2PConsistency, Reachability, OrphanRef}

// Violation is one invariant breach with its counterexample.
type Violation struct {
	Invariant Invariant
	// Device is the offending device's name ("" when the breach is not
	// attributable to a single device).
	Device string
	// Model/ID locate the FBNet object at fault, when there is one.
	Model string
	ID    int64
	// Detail is the human-readable counterexample.
	Detail string
	// Hunk is the confdiff hunk of the device's pending config change
	// around the offending lines; empty when the device is not in the
	// checked set or its config did not change.
	Hunk string

	// needle locates the offending lines inside the device's diff.
	needle string
}

func (v Violation) String() string {
	s := fmt.Sprintf("[%s] %s: %s", v.Invariant, v.Device, v.Detail)
	if v.Hunk != "" {
		s += "\n" + v.Hunk
	}
	return s
}

// Result is the outcome of one gate run.
type Result struct {
	Violations []Violation
	// Devices is how many rendered configs were checked.
	Devices int
	// Elapsed is the gate latency.
	Elapsed time.Duration
}

// Pass reports whether the deployment may proceed.
func (r Result) Pass() bool { return len(r.Violations) == 0 }

// ByInvariant returns violation counts per invariant.
func (r Result) ByInvariant() map[Invariant]int {
	out := map[Invariant]int{}
	for _, v := range r.Violations {
		out[v.Invariant]++
	}
	return out
}

// RejectionError is returned by the deployment pipeline when the gate
// fails; it wraps the full result so callers can render every
// counterexample.
type RejectionError struct {
	Result Result
}

func (e *RejectionError) Error() string {
	n := len(e.Result.Violations)
	first := ""
	if n > 0 {
		v := e.Result.Violations[0]
		first = fmt.Sprintf("; first: [%s] %s: %s", v.Invariant, v.Device, v.Detail)
	}
	return fmt.Sprintf("verify: deployment rejected, %d invariant violation(s)%s", n, first)
}

// Checker verifies rendered configs against FBNet intent.
type Checker struct {
	store *fbnet.Store
	// golden returns a device's current golden config (the diff baseline
	// for counterexample hunks); an error means no golden exists yet and
	// the whole config is treated as new.
	golden func(device string) (string, error)

	// idx is the topology index Check reads; mu serializes Check over
	// its cursor and the per-key violations it keeps (see incremental.go).
	idx    *topo.Index
	mu     sync.Mutex
	cursor uint64
	found  map[vkey][]Violation

	runs       *telemetry.Counter
	rechecked  *telemetry.Counter
	rejections *telemetry.Counter
	violations map[Invariant]*telemetry.Counter
	latency    *telemetry.Histogram
}

// NewChecker builds a gate over the store. golden may be nil when no
// config repository exists (hunks are then diffed against empty).
func NewChecker(store *fbnet.Store, golden func(device string) (string, error)) *Checker {
	return &Checker{store: store, golden: golden, idx: topo.New(store)}
}

// SetIndex makes Check read idx, a topology index over the same store
// shared with other stages, instead of the checker's own.
func (c *Checker) SetIndex(idx *topo.Index) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.idx, c.cursor, c.found = idx, 0, nil
}

// Instrument registers the robotron_verify_* metrics on reg.
func (c *Checker) Instrument(reg *telemetry.Registry) {
	reg.Help("robotron_verify_runs_total", "Pre-deploy verification gate runs.")
	reg.Help("robotron_verify_rejections_total", "Gate runs that rejected a deployment.")
	reg.Help("robotron_verify_violations_total", "Invariant violations found by the gate, by invariant.")
	reg.Help("robotron_verify_seconds", "Verification gate latency in seconds.")
	reg.Help("robotron_verify_keys_rechecked_total", "FBNet-only invariant keys the incremental gate recomputed.")
	c.runs = reg.Counter("robotron_verify_runs_total")
	c.rechecked = reg.Counter("robotron_verify_keys_rechecked_total")
	c.rejections = reg.Counter("robotron_verify_rejections_total")
	c.violations = map[Invariant]*telemetry.Counter{}
	for _, inv := range Invariants {
		c.violations[inv] = reg.Counter("robotron_verify_violations_total",
			telemetry.L("invariant", string(inv))...)
	}
	c.latency = reg.Histogram("robotron_verify_seconds")
}

// CheckFull verifies the rendered configs (device name → config text)
// against the whole FBNet Desired state, re-reading every table. It is
// the reference Check is property-tested against; invariants over FBNet
// alone (subnets, reachability, circuit endpoints) are checked
// network-wide regardless of the set.
func (c *Checker) CheckFull(configs map[string]string) (Result, error) {
	start := time.Now()
	c.runs.Inc()
	net, err := c.loadNetwork()
	if err != nil {
		return Result{}, err
	}
	var vs []Violation
	for _, pass := range []func(*network, map[string]string) ([]Violation, error){
		c.checkBGPSymmetry,
		c.checkP2PConsistency,
		c.checkReachability,
		c.checkOrphanRefs,
	} {
		found, err := pass(net, configs)
		if err != nil {
			return Result{}, err
		}
		vs = append(vs, found...)
	}
	return c.finish(configs, vs, start), nil
}

// finish orders the violations, attaches their hunks and records the
// run's metrics.
func (c *Checker) finish(configs map[string]string, vs []Violation, start time.Time) Result {
	sortViolations(vs)
	c.attachHunks(configs, vs)
	res := Result{Violations: vs, Devices: len(configs), Elapsed: time.Since(start)}
	for _, v := range vs {
		c.violations[v.Invariant].Inc()
	}
	if !res.Pass() {
		c.rejections.Inc()
	}
	c.latency.ObserveSince(start)
	return res
}

// sortViolations puts violations in a total order: two runs over the
// same network list the same violations in the same order.
func sortViolations(vs []Violation) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := &vs[i], &vs[j]
		if a.Invariant != b.Invariant {
			return a.Invariant < b.Invariant
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Detail != b.Detail {
			return a.Detail < b.Detail
		}
		if a.Model != b.Model {
			return a.Model < b.Model
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.needle < b.needle
	})
}

// network is the resolved object graph every pass walks.
type network struct {
	devByID   map[int64]fbnet.Object
	devByName map[string]fbnet.Object
	devIDs    []int64 // sorted for deterministic iteration
	aggDev    map[int64]int64
	aggName   map[int64]string
	pifDev    map[int64]int64
	pifName   map[int64]string
	syntax    map[int64]string // device → vendor syntax ("vendor1"/"vendor2")
}

func (n *network) devName(id int64) string {
	if d, ok := n.devByID[id]; ok {
		return d.String("name")
	}
	return fmt.Sprintf("device#%d", id)
}

func (c *Checker) loadNetwork() (*network, error) {
	net := &network{
		devByID:   map[int64]fbnet.Object{},
		devByName: map[string]fbnet.Object{},
		aggDev:    map[int64]int64{},
		aggName:   map[int64]string{},
		pifDev:    map[int64]int64{},
		pifName:   map[int64]string{},
		syntax:    map[int64]string{},
	}
	devs, err := c.store.Find("Device", nil)
	if err != nil {
		return nil, err
	}
	hws, err := c.store.Find("HardwareProfile", nil)
	if err != nil {
		return nil, err
	}
	hwVendor := map[int64]int64{}
	for _, hw := range hws {
		hwVendor[hw.ID] = hw.Ref("vendor")
	}
	vendors, err := c.store.Find("Vendor", nil)
	if err != nil {
		return nil, err
	}
	vendorSyntax := map[int64]string{}
	for _, v := range vendors {
		vendorSyntax[v.ID] = v.String("syntax")
	}
	for _, d := range devs {
		net.devByID[d.ID] = d
		net.devByName[d.String("name")] = d
		net.devIDs = append(net.devIDs, d.ID)
		net.syntax[d.ID] = vendorSyntax[hwVendor[d.Ref("hw_profile")]]
	}
	sort.Slice(net.devIDs, func(i, j int) bool { return net.devIDs[i] < net.devIDs[j] })
	lcDev := map[int64]int64{}
	lcs, err := c.store.Find("Linecard", nil)
	if err != nil {
		return nil, err
	}
	for _, lc := range lcs {
		lcDev[lc.ID] = lc.Ref("device")
	}
	pifs, err := c.store.Find("PhysicalInterface", nil)
	if err != nil {
		return nil, err
	}
	for _, p := range pifs {
		net.pifDev[p.ID] = lcDev[p.Ref("linecard")]
		net.pifName[p.ID] = p.String("name")
	}
	aggs, err := c.store.Find("AggregatedInterface", nil)
	if err != nil {
		return nil, err
	}
	for _, a := range aggs {
		net.aggDev[a.ID] = a.Ref("device")
		net.aggName[a.ID] = a.String("name")
	}
	return net, nil
}

// sessionPrefixModel maps a session model to its address-family prefix
// model.
func sessionPrefixModel(model string) string {
	if model == "BgpV4Session" {
		return "V4Prefix"
	}
	return "V6Prefix"
}

// localSideAddr resolves the address the *remote* peer must configure as
// its neighbor statement for this session: the local side's p2p prefix
// address (eBGP over a bundle) or its loopback (iBGP mesh) — mirroring
// exactly what configgen renders.
func (c *Checker) localSideAddr(net *network, s fbnet.Object, model string) string {
	if pfxID := s.Ref("local_prefix"); pfxID != 0 {
		pfx, err := c.store.GetByID(sessionPrefixModel(model), pfxID)
		if err != nil {
			return ""
		}
		return addrOf(pfx.String("prefix"))
	}
	local, ok := net.devByID[s.Ref("local_device")]
	if !ok {
		return ""
	}
	lo := local.String("loopback_v6")
	if model == "BgpV4Session" {
		lo = local.String("loopback_v4")
	}
	return addrOf(lo)
}

// checkBGPSymmetry verifies every session is consistent on both endpoints:
// the session-type/AS relationship holds, each device claims a single
// local AS across its internal sessions, and the rendered config of each
// endpoint in the deploy set carries the neighbor statement the other end
// expects. Two exemptions mirror legitimate design idioms: sessions to
// external peers (no remote_device, e.g. an ISP interconnect) are excluded
// from per-device AS aggregation, since operators present a different AS
// to partners; and AS claims are aggregated per session type, because
// cluster edge routers run their fabric eBGP AS while also joining the
// backbone's private-AS iBGP overlay.
func (c *Checker) checkBGPSymmetry(net *network, configs map[string]string) ([]Violation, error) {
	var vs []Violation
	type claimKey struct {
		dev   int64
		sType string
	}
	// (device, session type) → AS → number of internal sessions claiming it.
	claims := map[claimKey]map[int64]int{}
	claim := func(dev int64, sType string, as int64) {
		if as == 0 {
			return
		}
		k := claimKey{dev, sType}
		if claims[k] == nil {
			claims[k] = map[int64]int{}
		}
		claims[k][as]++
	}
	for _, model := range []string{"BgpV6Session", "BgpV4Session"} {
		sessions, err := c.store.Find(model, nil)
		if err != nil {
			return nil, err
		}
		for _, s := range sessions {
			l, r := s.Ref("local_device"), s.Ref("remote_device")
			la, ra := s.Int("local_as"), s.Int("remote_as")
			internal := l != 0 && r != 0
			if l != 0 && l == r {
				vs = append(vs, Violation{
					Invariant: BGPSymmetry, Device: net.devName(l), Model: model, ID: s.ID,
					Detail: "session peers with itself",
				})
				continue
			}
			switch s.String("session_type") {
			case "ibgp":
				if la != ra {
					vs = append(vs, Violation{
						Invariant: BGPSymmetry, Device: net.devName(l), Model: model, ID: s.ID,
						Detail: fmt.Sprintf("iBGP session with asymmetric AS numbers %d != %d", la, ra),
						needle: strconv.FormatInt(ra, 10),
					})
				}
			case "ebgp":
				if internal && la == ra {
					vs = append(vs, Violation{
						Invariant: BGPSymmetry, Device: net.devName(l), Model: model, ID: s.ID,
						Detail: fmt.Sprintf("eBGP session between %s and %s inside one AS %d",
							net.devName(l), net.devName(r), la),
						needle: strconv.FormatInt(la, 10),
					})
				}
			}
			if internal {
				claim(l, s.String("session_type"), la)
				claim(r, s.String("session_type"), ra)
			}
			// Both-endpoint config symmetry for the deploy set: the §1
			// failure class "iBGP sessions configured on only one peer".
			if internal {
				lName, rName := net.devName(l), net.devName(r)
				if cfg, ok := configs[lName]; ok {
					if raddr := s.String("remote_addr"); raddr != "" && !containsAddr(cfg, raddr) {
						vs = append(vs, missingNeighbor(lName, model, s.ID, raddr, "to", rName))
					}
				}
				if cfg, ok := configs[rName]; ok {
					if laddr := c.localSideAddr(net, s, model); laddr != "" && !containsAddr(cfg, laddr) {
						vs = append(vs, missingNeighbor(rName, model, s.ID, laddr, "from", lName))
					}
				}
			}
		}
	}
	for _, devID := range net.devIDs {
		for _, sType := range []string{"ebgp", "ibgp"} {
			if v, ok := claimViolation(claims[claimKey{devID, sType}], devID, net.devName(devID), sType); ok {
				vs = append(vs, v)
			}
		}
	}
	return vs, nil
}

// checkP2PConsistency groups every p2p prefix by its subnet and verifies
// each subnet has exactly two ends on exactly two adjacent devices, then
// replays all allocations (p2p and external interconnects) into fresh
// ipam pools to reject overlap/reuse across circuits — including
// different-length overlaps a same-subnet grouping cannot see.
func (c *Checker) checkP2PConsistency(net *network, _ map[string]string) ([]Violation, error) {
	var vs []Violation
	adjacent, err := c.adjacencyPairs(net)
	if err != nil {
		return nil, err
	}
	groups := map[netip.Prefix][]p2pEnd{}
	var allSubnets []netip.Prefix
	subnetOwner := map[netip.Prefix]string{}
	for _, model := range []string{"V6Prefix", "V4Prefix"} {
		pfxs, err := c.store.Find(model, nil)
		if err != nil {
			return nil, err
		}
		for _, p := range pfxs {
			purpose := p.String("purpose")
			if purpose != "p2p" && purpose != "external" {
				continue
			}
			pfx, err := netip.ParsePrefix(p.String("prefix"))
			if err != nil {
				vs = append(vs, Violation{
					Invariant: P2PConsistency, Device: net.devName(net.aggDev[p.Ref("interface")]),
					Model: model, ID: p.ID,
					Detail: fmt.Sprintf("stored prefix %q does not parse: %v", p.String("prefix"), err),
				})
				continue
			}
			subnet := pfx.Masked()
			if _, seen := subnetOwner[subnet]; !seen {
				allSubnets = append(allSubnets, subnet)
				subnetOwner[subnet] = net.devName(net.aggDev[p.Ref("interface")])
			}
			if purpose != "p2p" {
				continue // external: one side is an ISP we do not model
			}
			dev := net.aggDev[p.Ref("interface")]
			groups[subnet] = append(groups[subnet], p2pEnd{
				dev: dev, addr: pfx.Addr(), prefix: pfx, model: model, id: p.ID,
			})
		}
	}
	var subnets []netip.Prefix
	for s := range groups {
		subnets = append(subnets, s)
	}
	sort.Slice(subnets, func(i, j int) bool {
		if subnets[i].Addr() != subnets[j].Addr() {
			return subnets[i].Addr().Less(subnets[j].Addr())
		}
		return subnets[i].Bits() < subnets[j].Bits()
	})
	for _, subnet := range subnets {
		vs = append(vs, endViolations(subnet, groups[subnet], net.devName, func(a, z int64) bool {
			return adjacent[pairKey(a, z)]
		})...)
	}
	// Replay every subnet into a fresh pool per family: overlapping
	// allocations of different lengths (a /126 swallowing a /127) collide
	// here even though they group separately above.
	sort.Slice(allSubnets, func(i, j int) bool {
		if allSubnets[i].Addr() != allSubnets[j].Addr() {
			return allSubnets[i].Addr().Less(allSubnets[j].Addr())
		}
		return allSubnets[i].Bits() < allSubnets[j].Bits()
	})
	pool4, pool6 := ipam.MustPool("0.0.0.0/0"), ipam.MustPool("::/0")
	for _, subnet := range allSubnets {
		pool := pool6
		if subnet.Addr().Is4() {
			pool = pool4
		}
		if err := pool.Reserve(subnet, subnetOwner[subnet]); err != nil {
			vs = append(vs, Violation{
				Invariant: P2PConsistency, Device: subnetOwner[subnet],
				Detail: fmt.Sprintf("subnet %s overlaps another circuit's allocation: %v", subnet, err),
				needle: subnet.Addr().String(),
			})
		}
	}
	return vs, nil
}

// adjacencyPairs collects every device pair connected by a link group or
// a non-decommissioned circuit.
func (c *Checker) adjacencyPairs(net *network) (map[[2]int64]bool, error) {
	pairs := map[[2]int64]bool{}
	lgs, err := c.store.Find("LinkGroup", nil)
	if err != nil {
		return nil, err
	}
	for _, lg := range lgs {
		a, z := lg.Ref("a_device"), lg.Ref("z_device")
		if a != 0 && z != 0 {
			pairs[pairKey(a, z)] = true
		}
	}
	circuits, err := c.store.Find("Circuit", fbnet.Ne("status", "decommissioned"))
	if err != nil {
		return nil, err
	}
	for _, cir := range circuits {
		a, z := net.pifDev[cir.Ref("a_interface")], net.pifDev[cir.Ref("z_interface")]
		if a != 0 && z != 0 {
			pairs[pairKey(a, z)] = true
		}
	}
	return pairs, nil
}

func pairKey(a, z int64) [2]int64 {
	if a > z {
		a, z = z, a
	}
	return [2]int64{a, z}
}

// roleRank orders roles bottom-up; a device's "aggregation layer" is any
// same-cluster device of strictly higher rank.
var roleRank = map[string]int{
	"tor": 0, "fsw": 1, "psw": 1, "ssw": 2, "dr": 3, "pr": 3, "bb": 4,
}

// checkReachability verifies every cluster device below its cluster's top
// tier can reach a higher-rank device of the same cluster over
// non-decommissioned circuits. Backbone routers (no cluster) are exempt:
// they are legitimately built out before their circuits exist.
func (c *Checker) checkReachability(net *network, _ map[string]string) ([]Violation, error) {
	var vs []Violation
	circuits, err := c.store.Find("Circuit", fbnet.Ne("status", "decommissioned"))
	if err != nil {
		return nil, err
	}
	adj := map[int64][]int64{}
	for _, cir := range circuits {
		a, z := net.pifDev[cir.Ref("a_interface")], net.pifDev[cir.Ref("z_interface")]
		if a == 0 || z == 0 || a == z {
			continue
		}
		adj[a] = append(adj[a], z)
		adj[z] = append(adj[z], a)
	}
	clusterMax := map[int64]int{}
	for _, devID := range net.devIDs {
		d := net.devByID[devID]
		cl := d.Ref("cluster")
		if cl == 0 {
			continue
		}
		if rank, ok := roleRank[d.String("role")]; ok && rank > clusterMax[cl] {
			clusterMax[cl] = rank
		}
	}
	for _, devID := range net.devIDs {
		d := net.devByID[devID]
		cl := d.Ref("cluster")
		if cl == 0 {
			continue
		}
		rank, ok := roleRank[d.String("role")]
		if !ok || rank >= clusterMax[cl] {
			continue // top tier (or unranked role): nothing above it
		}
		if c.reaches(net, adj, devID, cl, rank) {
			continue
		}
		vs = append(vs, unreachable(devID, d.String("name"), d.String("role")))
	}
	return vs, nil
}

// reaches BFSes from start and reports whether any same-cluster device of
// strictly higher rank is connected.
func (c *Checker) reaches(net *network, adj map[int64][]int64, start, cluster int64, rank int) bool {
	seen := map[int64]bool{start: true}
	queue := []int64{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if seen[next] {
				continue
			}
			seen[next] = true
			if d, ok := net.devByID[next]; ok && d.Ref("cluster") == cluster {
				if r, ok := roleRank[d.String("role")]; ok && r > rank {
					return true
				}
			}
			queue = append(queue, next)
		}
	}
	return false
}

var (
	ifaceV1Re    = regexp.MustCompile(`^interface +(\S+)$`)
	ifaceV2Re    = regexp.MustCompile(`^(?:replace: +)?((?:et|xe|ge|ae|lo)[-0-9/.]*\d\S*) +\{`)
	neighborV1Re = regexp.MustCompile(`^ neighbor +(\S+) +remote-as +\d+`)
	neighborV2Re = regexp.MustCompile(`^\s*neighbor +(\S+) +\{`)
)

// checkOrphanRefs verifies referential integrity in both directions:
// FBNet objects a deployment depends on still resolve (circuit endpoints,
// prefix→interface bindings, session local prefixes), and every interface
// or BGP neighbor named in a rendered config resolves back to FBNet
// intent.
func (c *Checker) checkOrphanRefs(net *network, configs map[string]string) ([]Violation, error) {
	var vs []Violation
	// Active circuits must keep both endpoints; a deleted interface
	// nulls the reference (SetNull) and leaves a half-connected circuit.
	circuits, err := c.store.Find("Circuit", fbnet.In("status", "provisioning", "production"))
	if err != nil {
		return nil, err
	}
	for _, cir := range circuits {
		a, z := cir.Ref("a_interface"), cir.Ref("z_interface")
		if a != 0 && z != 0 {
			continue
		}
		vs = append(vs, orphanCircuit(cir.ID, cir.String("circuit_id"), cir.String("status"), a == 0))
	}
	// p2p/external prefixes must stay bound to an existing interface.
	for _, model := range []string{"V6Prefix", "V4Prefix"} {
		pfxs, err := c.store.Find(model, nil)
		if err != nil {
			return nil, err
		}
		for _, p := range pfxs {
			purpose := p.String("purpose")
			if purpose != "p2p" && purpose != "external" {
				continue
			}
			aggID := p.Ref("interface")
			if aggID == 0 {
				vs = append(vs, Violation{
					Invariant: OrphanRef, Model: model, ID: p.ID,
					Detail: fmt.Sprintf("%s prefix %s is bound to no interface", purpose, p.String("prefix")),
					needle: addrOf(p.String("prefix")),
				})
			} else if net.aggDev[aggID] == 0 {
				vs = append(vs, Violation{
					Invariant: OrphanRef, Model: model, ID: p.ID,
					Detail: fmt.Sprintf("%s prefix %s is bound to interface %d which resolves to no device",
						purpose, p.String("prefix"), aggID),
					needle: addrOf(p.String("prefix")),
				})
			}
		}
	}
	// Session local prefixes must resolve onto the session's own device.
	for _, model := range []string{"BgpV6Session", "BgpV4Session"} {
		sessions, err := c.store.Find(model, nil)
		if err != nil {
			return nil, err
		}
		for _, s := range sessions {
			pfxID := s.Ref("local_prefix")
			l := s.Ref("local_device")
			if pfxID == 0 || l == 0 {
				continue
			}
			pfx, err := c.store.GetByID(sessionPrefixModel(model), pfxID)
			if err != nil {
				vs = append(vs, Violation{
					Invariant: OrphanRef, Device: net.devName(l), Model: model, ID: s.ID,
					Detail: fmt.Sprintf("session references local prefix #%d which no longer exists", pfxID),
				})
				continue
			}
			if dev := net.aggDev[pfx.Ref("interface")]; dev != l {
				vs = append(vs, Violation{
					Invariant: OrphanRef, Device: net.devName(l), Model: model, ID: s.ID,
					Detail: fmt.Sprintf("session's local prefix %s is not addressed on %s",
						pfx.String("prefix"), net.devName(l)),
					needle: addrOf(pfx.String("prefix")),
				})
			}
		}
	}
	// Rendered-config side: every named interface and neighbor resolves.
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		dev, ok := net.devByName[name]
		if !ok {
			vs = append(vs, Violation{
				Invariant: OrphanRef, Device: name,
				Detail: "config rendered for a device that does not exist in FBNet",
			})
			continue
		}
		vs = append(vs, c.scanConfig(net, dev, name, configs[name])...)
	}
	return vs, nil
}

// scanConfig cross-checks one rendered config against FBNet: interface
// stanzas must name interfaces of the device, neighbor statements must
// correspond to designed sessions.
func (c *Checker) scanConfig(net *network, dev fbnet.Object, name, cfg string) []Violation {
	valid := map[string]bool{"lo0": true}
	for pifID, d := range net.pifDev {
		if d == dev.ID {
			valid[net.pifName[pifID]] = true
		}
	}
	for aggID, d := range net.aggDev {
		if d == dev.ID {
			valid[net.aggName[aggID]] = true
		}
	}
	expectedNbrs, err := c.expectedNeighbors(net, dev.ID)
	if err != nil {
		return nil
	}
	return scanLines(name, cfg, net.syntax[dev.ID], valid, expectedNbrs)
}

// scanLines walks a rendered config in the device's syntax: every
// interface stanza must name a valid interface, every neighbor statement
// an expected address.
func scanLines(name, cfg, syntax string, valid, expectedNbrs map[string]bool) []Violation {
	var vs []Violation
	ifaceRe, nbrRe := ifaceV1Re, neighborV1Re
	if syntax == "vendor2" {
		ifaceRe, nbrRe = ifaceV2Re, neighborV2Re
	}
	for _, line := range strings.Split(cfg, "\n") {
		if m := ifaceRe.FindStringSubmatch(line); m != nil {
			iface := m[1]
			if strings.HasPrefix(iface, "tunnel-te") || strings.HasPrefix(iface, "lo") {
				continue
			}
			if !valid[iface] {
				vs = append(vs, Violation{
					Invariant: OrphanRef, Device: name,
					Detail: fmt.Sprintf("config references interface %s which does not resolve in FBNet", iface),
					needle: iface,
				})
			}
		}
		if m := nbrRe.FindStringSubmatch(line); m != nil {
			addr := m[1]
			if !expectedNbrs[addr] {
				vs = append(vs, Violation{
					Invariant: OrphanRef, Device: name,
					Detail: fmt.Sprintf("config references BGP neighbor %s which matches no designed session", addr),
					needle: addr,
				})
			}
		}
	}
	return vs
}

// expectedNeighbors returns every neighbor address the device's designed
// sessions can render: remote_addr where it is the local side, and the
// far side's prefix address or loopback where it is the remote side.
func (c *Checker) expectedNeighbors(net *network, devID int64) (map[string]bool, error) {
	out := map[string]bool{}
	for _, model := range []string{"BgpV6Session", "BgpV4Session"} {
		sessions, err := c.store.Find(model, nil)
		if err != nil {
			return nil, err
		}
		for _, s := range sessions {
			if s.Ref("local_device") == devID {
				if addr := s.String("remote_addr"); addr != "" {
					out[addr] = true
				}
			}
			if s.Ref("remote_device") == devID {
				if addr := c.localSideAddr(net, s, model); addr != "" {
					out[addr] = true
				}
			}
		}
	}
	return out, nil
}

// attachHunks computes, for each device-attributed violation whose config
// is in the checked set, the diff hunk (golden → candidate) around the
// violation's needle.
func (c *Checker) attachHunks(configs map[string]string, vs []Violation) {
	diffs := map[string]confdiff.Diff{}
	for i := range vs {
		v := &vs[i]
		cfg, ok := configs[v.Device]
		if v.Device == "" || !ok {
			continue
		}
		d, cached := diffs[v.Device]
		if !cached {
			old := ""
			if c.golden != nil {
				old, _ = c.golden(v.Device) // no golden yet: diff vs empty
			}
			d = confdiff.Compute(old, cfg)
			diffs[v.Device] = d
		}
		if d.Empty() {
			continue
		}
		v.Hunk = d.HunkContaining(v.needle, 2)
	}
}

// parseCircuitEnd recovers the (device, interface) names of one circuit
// end from the circuit_id convention "aDev:aIf--zDev:zIf".
func parseCircuitEnd(circuitID string, aSide bool) (dev, iface string) {
	parts := strings.SplitN(circuitID, "--", 2)
	side := parts[0]
	if !aSide && len(parts) == 2 {
		side = parts[1]
	}
	if i := strings.IndexByte(side, ':'); i >= 0 {
		return side[:i], side[i+1:]
	}
	return side, ""
}

// addrOf strips the prefix length: "2401::1/127" -> "2401::1".
func addrOf(pfx string) string {
	if i := strings.IndexByte(pfx, '/'); i >= 0 {
		return pfx[:i]
	}
	return pfx
}

// containsAddr reports whether cfg contains addr as a whole token (not as
// a substring of a longer address: "10.0.0.1" must not match "10.0.0.10").
func containsAddr(cfg, addr string) bool {
	for i := 0; ; {
		j := strings.Index(cfg[i:], addr)
		if j < 0 {
			return false
		}
		j += i
		k := j + len(addr)
		before := j == 0 || !addrChar(cfg[j-1])
		after := k >= len(cfg) || !addrChar(cfg[k])
		if before && after {
			return true
		}
		i = j + 1
	}
}

func addrChar(b byte) bool {
	switch {
	case b >= '0' && b <= '9', b >= 'a' && b <= 'f', b >= 'A' && b <= 'F':
		return true
	case b == '.' || b == ':' || b == '/':
		return true
	}
	return false
}
