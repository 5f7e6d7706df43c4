// Package topo keeps a resolved topology index over FBNet: devices and
// their vendor syntax, linecards, physical and aggregated interfaces,
// circuits with resolved end names, p2p/external prefixes, BGP sessions,
// and cluster/site membership. The index holds ids, names and refs, never
// row maps.
//
// The index advances lazily: every read first tails the store's binlog
// from the index's cursor (relstore.DB.EntriesSince), skipping tables it
// does not index. Each applied entry leaves dirty marks — the changed
// object plus every object its pre-image or post-image pointed at — in a
// bounded journal, so consumers that remember their own cursor can ask
// what changed since they last looked and redo only that work. Three
// stages read it: the verify gate, core's SyncFleet and the derived
// monitoring config.
//
// The cursor and rebuild rules follow configgen's memo: a rebuild
// captures the binlog sequence before reading, so writes that land
// mid-read are replayed (idempotently) afterwards; a DDL entry, or a
// cursor behind the start of the binlog, forces a rebuild; and a
// consumer whose cursor is older than the last rebuild or the journal's
// retained window is told to start over (Delta.Full).
package topo

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
)

// Kind names what a dirty mark points at.
type Kind uint8

const (
	KDevice   Kind = iota // a device row, or the vendor syntax it resolves to
	KAttached             // an interface, prefix, session, circuit or link group on a device
	KCircuit              // a circuit row or the resolution of its ends
	KSession              // a BGP session row
	KPrefix               // a V4/V6 prefix row or the interface it binds
	KSubnet               // a p2p/external subnet's membership or containment
	KCluster              // a cluster's membership or connectivity
)

// Key identifies one dirty object. V4 tells the v4 model of a session or
// prefix from the v6 one; Subnet is set for KSubnet only.
type Key struct {
	Kind   Kind
	V4     bool
	ID     int64
	Subnet netip.Prefix
}

// Delta is what changed between a consumer's cursor and the index's.
// Full means the consumer must recompute everything: the index was
// rebuilt, or the journal no longer reaches back to the cursor.
type Delta struct {
	Full bool
	Keys map[Key]struct{}
}

// journalMax bounds the dirty-mark journal; past it the older half is
// dropped and consumers behind the cut read Full.
const journalMax = 1 << 14

type mark struct {
	seq uint64
	key Key
}

// Index is the binlog-tailed topology index over one FBNet store. It is
// safe for concurrent use; reads serialize on one mutex.
type Index struct {
	db *relstore.DB

	mu      sync.Mutex
	seq     uint64 // binlog applied through
	base    uint64 // seq of the last rebuild: older cursors read Full
	cut     uint64 // marks with seq <= cut were dropped from the journal
	cur     uint64 // seq of the entry being applied
	journal []mark
	t       *Topology
	quiet   bool // rebuilding: no marks, no connectivity analysis
}

// New builds an index over the store. It reads nothing until first used.
func New(store *fbnet.Store) *Index {
	return &Index{db: store.DB()}
}

// Read advances the index to the binlog's head and calls fn with the
// topology and the delta since the caller's cursor since (0 for a caller
// that has never read). fn runs under the index lock and must not retain
// t. Read returns the cursor to pass next time; it is valid even when fn
// fails.
func (x *Index) Read(since uint64, fn func(t *Topology, d Delta) error) (uint64, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if err := x.advance(); err != nil {
		return since, err
	}
	return x.seq, fn(x.t, x.deltaSince(since))
}

// View advances the index and calls fn with the topology, for callers
// that need no delta.
func (x *Index) View(fn func(t *Topology)) error {
	_, err := x.Read(0, func(t *Topology, _ Delta) error {
		fn(t)
		return nil
	})
	return err
}

func (x *Index) deltaSince(since uint64) Delta {
	if since == 0 || since < x.base || since < x.cut {
		return Delta{Full: true}
	}
	d := Delta{Keys: map[Key]struct{}{}}
	i := sort.Search(len(x.journal), func(i int) bool { return x.journal[i].seq > since })
	for _, m := range x.journal[i:] {
		d.Keys[m.key] = struct{}{}
	}
	return d
}

// indexed lists the tables the index reads; entries for others are
// skipped.
var indexed = map[string]bool{
	"Device": true, "HardwareProfile": true, "Vendor": true, "Site": true,
	"Linecard": true, "PhysicalInterface": true, "AggregatedInterface": true,
	"Circuit": true, "LinkGroup": true, "V6Prefix": true, "V4Prefix": true,
	"BgpV6Session": true, "BgpV4Session": true,
}

// advance tails the binlog from the cursor, rebuilding when the tail
// cannot be trusted.
func (x *Index) advance() error {
	if x.t == nil || x.seq == 0 {
		return x.rebuild()
	}
	entries := x.db.EntriesSince(x.seq)
	if len(entries) == 0 {
		return nil
	}
	if entries[0].Seq != x.seq+1 {
		return x.rebuild() // the binlog no longer reaches back to the cursor
	}
	for i := range entries {
		e := &entries[i]
		if e.Op == relstore.OpCreateTable || e.Op == relstore.OpAlterAddColumn {
			return x.rebuild()
		}
		if !indexed[e.Table] {
			x.seq = e.Seq
			continue
		}
		x.cur = e.Seq
		x.apply(e.Op, e.Table, e.RowID, e.Values)
		x.seq = e.Seq
	}
	return nil
}

// rebuild reloads every indexed table. The sequence is captured before
// reading, so writes that land mid-read are replayed by the next
// advance; replay is idempotent (inserts upsert, updates and deletes of
// absent rows are no-ops).
func (x *Index) rebuild() error {
	seq := x.db.Seq()
	t := newTopology()
	x.t, x.quiet = t, true
	defer func() { x.quiet = false }()
	// Parents before children, so every ref resolves as rows arrive.
	for _, table := range []string{"Vendor", "HardwareProfile", "Site", "Device",
		"Linecard", "PhysicalInterface", "AggregatedInterface", "Circuit",
		"LinkGroup", "V6Prefix", "V4Prefix", "BgpV6Session", "BgpV4Session"} {
		rows, err := x.db.Select(table, nil)
		if err != nil {
			x.t, x.seq = nil, 0
			return fmt.Errorf("topo: rebuild: %w", err)
		}
		for _, r := range rows {
			x.apply(relstore.OpInsert, table, r.ID, r.Values)
		}
	}
	x.seq, x.base = seq, seq
	x.journal, x.cut = x.journal[:0], 0
	return x.advance()
}

func (x *Index) mark(k Key) {
	if x.quiet {
		return
	}
	if len(x.journal) >= journalMax {
		half := len(x.journal) / 2
		x.cut = x.journal[half-1].seq
		x.journal = append(x.journal[:0], x.journal[half:]...)
	}
	x.journal = append(x.journal, mark{seq: x.cur, key: k})
}

func (x *Index) markDevice(id int64) {
	if id != 0 {
		x.mark(Key{Kind: KDevice, ID: id})
	}
}

func (x *Index) markAttached(id int64) {
	if id != 0 {
		x.mark(Key{Kind: KAttached, ID: id})
	}
}

func (x *Index) markCluster(id int64) {
	if id != 0 {
		x.mark(Key{Kind: KCluster, ID: id})
	}
}
