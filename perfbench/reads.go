package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/fbnet/service"
)

// The read mix: a device by name with dotted fields (a point lookup), a
// device's interfaces, a site's devices and a cluster's circuits.
const (
	readDevice = iota
	readIfaces
	readSite
	readCircuits
	readKinds
)

// readWeights is the share of each kind in the mix, in percent. The
// shares are assumptions, not measured traffic; README.md gives the
// reason for each.
var readWeights = [readKinds]int{50, 25, 10, 15}

// readQuery is one kind's model, fields and match field.
var readQuery = [readKinds]struct {
	model, match string
	fields       []string
}{
	readDevice:   {"Device", "name", []string{"name", "role", "site.name", "hw_profile.vendor.name", "cluster.name"}},
	readIfaces:   {"PhysicalInterface", "linecard.device.name", []string{"name", "linecard.slot", "agg_interface.name"}},
	readSite:     {"Device", "site.name", []string{"name", "role"}},
	readCircuits: {"Circuit", "a_interface.linecard.device.cluster.name", []string{"circuit_id", "status", "z_interface.linecard.device.name"}},
}

// readOp is one scheduled read.
type readOp struct {
	Kind int
	Key  uint32 // picks the device, site or cluster
	Due  time.Duration
}

// planReads lays out a fixed schedule: rate reads per second, evenly
// spaced, for dur, with kinds drawn from readWeights.
func planReads(seed int64, rate float64, dur time.Duration) []readOp {
	rng := rand.New(rand.NewSource(seed))
	n := int(rate * dur.Seconds())
	out := make([]readOp, n)
	for i := range out {
		p, kind := rng.Intn(100), 0
		for ; p >= readWeights[kind]; kind++ {
			p -= readWeights[kind]
		}
		out[i] = readOp{Kind: kind, Key: rng.Uint32(), Due: time.Duration(float64(i) / rate * float64(time.Second))}
	}
	return out
}

const (
	// refRate is the fixed rate read_p50_us and read_p99_us are measured at.
	refRate = 1000.0
	// readLimit is the p99 latency the ladder's highest passing rate
	// holds. It sits above the program's own GC stalls (a ~55 ms mark
	// phase about once a second at these rates puts p99 at 8-25 ms on a
	// 2-core host at every rate from 400/s up), so the knee it finds is
	// where queueing starts, not where a step happened to miss a GC.
	readLimit = 50 * time.Millisecond
	// writeEvery reads, one backbone circuit migrates through the write
	// service's DesignAPI and replicates.
	writeEvery = 100
	// readClients is the number of client connections reading from apac.
	readClients = 2
	// The clients send back to back for capacityBursts bursts of
	// capacityBurst; the median completion rate is the capacity the
	// ladder starts from. Each ladder step offers its rate for
	// ladderStep, then rests ladderRest so its queue is gone before the
	// next; rates drop by ladderDrop until one holds, then bisect until
	// within ladderFine of a failing one.
	capacityBursts = 5
	capacityBurst  = 600 * time.Millisecond
	ladderDrop     = 0.85
	ladderMaxDrops = 12
	ladderFine     = 1.05
	ladderStep     = time.Second
	ladderRest     = 20 * time.Millisecond
	readWarmup     = 500 * time.Millisecond
)

// readRig is the fbnet-read workload's clients and the state its checks
// need.
type readRig struct {
	w       *world
	clients [readClients]*service.Client
	writer  *service.Client
	devices []string
	sites   []string
	clust   []string

	// epoch is even while no write is in flight; a read verified against
	// the master store must see the same even epoch before and after.
	epoch atomic.Int64

	writes []churnOp
	nextW  int
	ids    map[string]int64
	wspans *tracer
}

// phaseResult is one open-loop phase.
type phaseResult struct {
	lat, late  []float64 // ms
	service    []float64 // ms from send to reply
	backlogMax int
	failed     int
	unverified int
	rows       int
	endLate    float64 // worst lateness over the last quarter of the phase
}

func runReads(rc *runCtx) error {
	w := rc.w
	rig := &readRig{w: w, ids: map[string]int64{}}
	for i := range rig.clients {
		rig.clients[i] = service.NewClient(w.dep, "apac")
		defer rig.clients[i].Close()
	}
	rig.writer = service.NewClient(w.dep, "nam")
	defer rig.writer.Close()
	rig.devices = append(append([]string(nil), w.popDevices...), w.backbone...)
	rig.sites = append(append([]string(nil), w.siteNames...), backboneSite)
	rig.clust = w.clusters
	ids, err := w.backboneCircuits()
	if err != nil {
		return err
	}
	rig.ids = ids
	rig.writes = planChurn(rc.seed, w.backbone, churnPlanLen, true)
	rig.wspans = newTracer(false, rc.tr.t0)
	rig.wspans.op = 5_000_000

	if _, err := rig.phase(rc, planReads(rc.seed, refRate, readWarmup), false, false); err != nil {
		return err
	}
	rc.beginWindow()
	refDur := rc.seconds / 2
	refSteal := markSteal()
	ref, err := rig.phase(rc, planReads(rc.seed+1, refRate, refDur), true, true)
	if err != nil {
		return err
	}
	refShare := refSteal.share()
	// The result line times reads from send to reply. Timed from when
	// they were due, a host stall of a few ms queues every read due during
	// it, which moves the p90 by a factor of three between runs; the
	// from-due figures are printed as read_p50_us and read_p99_us.
	rc.lat = ref.service
	rc.add("service.reads", float64(len(ref.lat)))
	rc.add("service.rows", float64(ref.rows))
	rc.add("loadgen.late_p99_ms", percentile(ref.late, 0.99))
	rc.add("loadgen.backlog_max", float64(ref.backlogMax))

	// The ladder: the highest offered rate whose p99 holds readLimit
	// without a growing backlog. It starts at the capacity the two
	// connections reach when every client sends back to back, steps down
	// by ladderDrop until a rate holds, then bisects the bracket until the
	// rates tried are within ladderFine. Anchoring on a capacity measured
	// moments earlier keeps the knee where this run's host put it.
	var bursts []float64
	for b := int64(0); b < capacityBursts; b++ {
		c, err := rig.saturate(rc, rc.seed+2+b, capacityBurst)
		if err != nil {
			return err
		}
		bursts = append(bursts, c)
	}
	capacity := median(bursts)
	pass, fail, steps := 0.0, capacity, 0
	limit := float64(readLimit) / 1e6
	for rate := capacity * ladderDrop; ; steps++ {
		if pass > 0 && (rc.done() || fail/pass <= ladderFine) || pass == 0 && steps == ladderMaxDrops {
			break
		}
		res, err := rig.phase(rc, planReads(rc.seed+100+int64(steps), rate, ladderStep), false, true)
		if err != nil {
			return err
		}
		if res.failed == 0 && percentile(res.lat, 0.99) <= limit && res.endLate <= limit {
			pass = rate
		} else {
			fail = rate
		}
		if pass == 0 {
			rate *= ladderDrop
		} else {
			rate = math.Sqrt(pass * fail)
		}
		time.Sleep(ladderRest)
	}
	rc.endWindow()
	if pass == 0 {
		rc.failed++
		rc.problem(fmt.Errorf("no ladder rate held p99 <= %s", readLimit))
	}
	// The result line's throughput is the capacity. Whether a 1 s ladder
	// step passes turns on whether a GC or host stall lands in it, so
	// over runs of the same code the knee spread about twice as far as
	// the median of the bursts did (README.md).
	rc.throughput = capacity / rc.share
	rc.tr.merge(rig.wspans)
	rc.name("read_capacity_rps", rc.throughput, "1/s", len(bursts))
	rc.name("read_max_rps", pass/rc.share, "1/s", steps)
	// The latencies, here and on the result line, are the reference
	// phase's, so they are corrected by that phase's steal.
	rc.share = refShare
	rc.name("read_p50_us", 1e3*rc.pct(ref.lat, 0.5)*rc.share, "us", len(ref.lat))
	rc.name("read_p99_us", 1e3*rc.pct(ref.lat, 0.99)*rc.share, "us", len(ref.lat))
	rc.name("read_service_p50_us", 1e3*rc.pct(ref.service, 0.5)*rc.share, "us", len(ref.service))
	rc.name("read_service_p90_us", 1e3*rc.pct(ref.service, tailQ)*rc.share, "us", len(ref.service))
	rc.name("unverified_reads", float64(ref.unverified), "count", len(ref.lat))
	rc.name("torn_reads", rc.acc["service.torn_reads"], "count", rc.attempted)
	return nil
}

// phase runs one open-loop phase: each client issues its share of ops at
// their due times whether or not earlier ones finished; latency counts
// from the due time and stops when the read returns. check compares every
// read that returned rows with a direct read of the master store at the
// same binlog position, after the clock has stopped and the read's span
// has ended, and records spans in trace mode. measured counts the phase's
// ops as attempted.
func (rig *readRig) phase(rc *runCtx, ops []readOp, check, measured bool) (phaseResult, error) {
	type sample struct {
		lat, late float64
		service   float64
		started   time.Duration
		failed    bool
		rows      int
		unverif   bool
	}
	traced := check && rc.trace
	var res phaseResult
	samples := make([]sample, len(ops))
	tracers := make([]*tracer, readClients)
	start := time.Now()
	writes := make(chan struct{}, len(ops)/writeEvery+1)
	var wg sync.WaitGroup
	var writeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range writes {
			if err := rig.write(rc, traced); err != nil && writeErr == nil {
				writeErr = err
			}
		}
	}()
	var cwg sync.WaitGroup
	for c := 0; c < readClients; c++ {
		tr := newTracer(traced, rc.tr.t0)
		tr.op = int64(1_000_000 * (c + 1))
		tracers[c] = tr
		cwg.Add(1)
		go func(client *service.Client, tr *tracer, first int) {
			defer cwg.Done()
			var pace pacer
			for i := first; i < len(ops); i += readClients {
				op := ops[i]
				due := start.Add(op.Due)
				pace.wait(due)
				began := time.Now()
				tr.op++
				root := tr.start("bench.read")
				d, err := rig.read(client, tr, op)
				tr.end(root)
				end := time.Now()
				s := sample{lat: ms(end.Sub(due)), late: ms(began.Sub(due)), service: ms(end.Sub(began)), started: began.Sub(start), rows: len(d.rows)}
				var torn tornRead
				switch {
				case errors.As(err, &torn):
					s.lat, s.service = failedLatency, failedLatency
					rc.add("service.torn_reads", 1)
				case err != nil:
					s.failed, s.lat, s.service = true, failedLatency, failedLatency
					rc.problem(err)
				case check:
					var cerr error
					if s.unverif, cerr = rig.check(d); cerr != nil {
						s.failed, s.lat, s.service = true, failedLatency, failedLatency
						rc.problem(cerr)
					}
				}
				samples[i] = s
				if i%writeEvery == writeEvery-1 {
					writes <- struct{}{}
				}
			}
		}(rig.clients[c], tr, c)
	}
	cwg.Wait()
	close(writes)
	wg.Wait()
	if writeErr != nil {
		return res, writeErr
	}
	// Backlog: how many ops were due but not started when each started.
	dues := make([]time.Duration, len(ops))
	for i, op := range ops {
		dues[i] = op.Due
	}
	quarter := len(ops) * 3 / 4
	for i, s := range samples {
		res.lat = append(res.lat, s.lat)
		res.late = append(res.late, s.late)
		res.service = append(res.service, s.service)
		due := sort.Search(len(dues), func(j int) bool { return dues[j] > s.started })
		if b := due - i; b > res.backlogMax {
			res.backlogMax = b
		}
		if i >= quarter && s.late > res.endLate {
			res.endLate = s.late
		}
		if s.failed {
			res.failed++
		}
		if s.unverif {
			res.unverified++
		}
		res.rows += s.rows
	}
	for _, tr := range tracers {
		rc.tr.merge(tr)
	}
	if measured {
		rc.attempted += len(ops)
		rc.failed += res.failed
	}
	return res, nil
}

// pacer waits for an op's due time. A timer wakes late by a roughly
// steady amount on a busy host (about 0.7 ms on the 2-core box this was
// written on), which would count as read latency; the pacer learns that
// overshoot, wakes that much early, and spins the rest.
type pacer struct{ slack time.Duration }

func (p *pacer) wait(due time.Time) {
	if d := time.Until(due) - p.slack; d > 0 {
		time.Sleep(d)
		over := time.Since(due.Add(-p.slack))
		p.slack += (over - p.slack) / 8
	}
	for time.Now().Before(due) {
	}
}

// saturate has every client send back to back for dur, with the usual
// share of writes, and returns the reads completed per second.
func (rig *readRig) saturate(rc *runCtx, seed int64, dur time.Duration) (float64, error) {
	ops := planReads(seed, 1e5, dur) // more than any host completes
	deadline := time.Now().Add(dur)
	var done, failed atomic.Int64
	var wg sync.WaitGroup
	writes := make(chan struct{}, 1)
	var werr error
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		for range writes {
			if err := rig.write(rc, false); err != nil && werr == nil {
				werr = err
			}
		}
	}()
	start := time.Now()
	for c := 0; c < readClients; c++ {
		wg.Add(1)
		go func(client *service.Client, first int) {
			defer wg.Done()
			off := newTracer(false, rc.tr.t0)
			for i := first; i < len(ops) && time.Now().Before(deadline); i += readClients {
				var torn tornRead
				if _, err := rig.read(client, off, ops[i]); errors.As(err, &torn) {
					rc.add("service.torn_reads", 1)
				} else if err != nil {
					failed.Add(1)
					rc.problem(err)
				}
				if n := done.Add(1); n%writeEvery == 0 {
					select {
					case writes <- struct{}{}:
					default: // a write is still running; skip this one
					}
				}
			}
		}(rig.clients[c], c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(writes)
	wwg.Wait()
	if werr != nil {
		return 0, werr
	}
	rc.mu.Lock()
	rc.attempted += int(done.Load())
	rc.failed += int(failed.Load())
	rc.mu.Unlock()
	return float64(done.Load()-failed.Load()) / elapsed.Seconds(), nil
}

// readDone is one read that returned, kept for its check.
type readDone struct {
	op     readOp
	key    string
	rows   []service.Result
	e1, e2 int64 // the write epoch when the read was sent and when it returned
}

// read issues one scheduled read over RPC. It does nothing else, so the
// time around it is the program's own read latency.
func (rig *readRig) read(client *service.Client, tr *tracer, op readOp) (readDone, error) {
	q := readQuery[op.Kind]
	d := readDone{op: op}
	switch op.Kind {
	case readDevice, readIfaces:
		d.key = rig.devices[int(op.Key)%len(rig.devices)]
	case readSite:
		d.key = rig.sites[int(op.Key)%len(rig.sites)]
	default:
		d.key = rig.clust[int(op.Key)%len(rig.clust)]
	}
	name := "service.get_scan"
	if op.Kind == readDevice {
		name = "service.get_point"
	}
	d.e1 = rig.epoch.Load()
	i := tr.start(name)
	got, err := client.Get(context.Background(), q.model, q.fields, service.Eq(q.match, d.key))
	tr.end(i)
	d.e2 = rig.epoch.Load()
	if err != nil {
		err = fmt.Errorf("get %s %s=%s: %w", q.model, q.match, d.key, err)
		if d.torn(err) {
			return d, tornRead{err}
		}
		return d, err
	}
	if len(got) == 0 {
		return d, fmt.Errorf("get %s %s=%s: no rows", q.model, q.match, d.key)
	}
	d.rows = got
	return d, nil
}

// check compares a read's rows with a direct read of the master store at
// the same binlog position. Writes replicate before the epoch turns even
// again, so while it is even and unchanged the replica and the master are
// at one position. unverified reports a read that cannot be pinned: a
// write overlapped it, or one ran between the read and its check.
func (rig *readRig) check(d readDone) (unverified bool, err error) {
	if d.e1 != d.e2 || d.e1%2 == 1 {
		return true, nil
	}
	q := readQuery[d.op.Kind]
	want, err := rig.w.dep.MasterStore().Get(q.model, q.fields, fbnet.Eq(q.match, d.key))
	if rig.epoch.Load() != d.e1 {
		return true, nil
	}
	if err != nil {
		return false, fmt.Errorf("direct get %s %s=%s: %w", q.model, q.match, d.key, err)
	}
	if a, b := digestRPC(d.rows, q.fields), digestDirect(want, q.fields); a != b {
		return false, fmt.Errorf("get %s %s=%s: replica rows differ from master at the same position", q.model, q.match, d.key)
	}
	return false, nil
}

// tornRead is a read that failed on a row a concurrent write deleted
// part-way through the query.
type tornRead struct{ error }

// torn reports whether err is the known torn-read defect: FBNet resolves
// each row of a query (dotted fields included) against whatever store
// epoch is current at that lookup, not one snapshot, so a query that
// overlaps a write or a replica catch-up can follow a reference into a
// row the write just deleted. Only a missing-row error on a read that a
// write overlapped (the epoch was odd or moved) counts.
func (d readDone) torn(err error) bool {
	return (d.e1%2 == 1 || d.e2 != d.e1) && strings.Contains(err.Error(), "no such row")
}

// write migrates the next planned backbone circuit through the write
// service's DesignAPI, then replicates and checks the replica caught up.
func (rig *readRig) write(rc *runCtx, traced bool) error {
	tr := rig.wspans
	tr.on = traced
	defer func() { tr.on = false }()
	op := rig.writes[rig.nextW%len(rig.writes)]
	rig.nextW++
	key := op.A + "|" + op.Z
	id, ok := rig.ids[key]
	if !ok {
		return fmt.Errorf("write: no circuit %s", key)
	}
	c, err := rig.w.dep.MasterStore().GetByID("Circuit", id)
	if err != nil {
		return err
	}
	rig.epoch.Add(1)
	defer rig.epoch.Add(1)
	tr.op++
	root := tr.start("bench.write")
	defer tr.end(root)
	err = tr.call("service.write", func() error {
		_, err := rig.writer.MigrateCircuit(context.Background(), &service.MigrateCircuitRequest{
			Meta:      service.ChangeMeta{EmployeeID: "e-bench", TicketID: "T-bench", Description: "bench migrate", Domain: "backbone", NowUnix: rig.w.vc.Now().Unix()},
			CircuitID: c.String("circuit_id"), NewZ: op.NewZ,
		})
		return err
	})
	if err != nil {
		return fmt.Errorf("migrate %s: %w", c.String("circuit_id"), err)
	}
	delete(rig.ids, key)
	rig.ids[op.A+"|"+op.NewZ] = id
	rc.peak("relstore.lag_max", float64(rig.w.dep.Lag()["apac"]))
	if err := tr.call("relstore.replicate", rig.w.dep.Replicate); err != nil {
		return fmt.Errorf("replicate: %w", err)
	}
	if lag := rig.w.dep.Lag()["apac"]; lag != 0 {
		return fmt.Errorf("replica apac still %d entries behind after Replicate", lag)
	}
	return nil
}

// digest renders rows in id order with the requested fields, so an RPC
// result and a direct store read compare as strings.
func digest(ids []int64, fields []map[string]any, paths []string) string {
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ids[order[a]] < ids[order[b]] })
	var b strings.Builder
	for _, i := range order {
		fmt.Fprintf(&b, "%d", ids[i])
		for _, p := range paths {
			fmt.Fprintf(&b, "|%v", fields[i][p])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func digestRPC(rs []service.Result, paths []string) string {
	ids, fields := make([]int64, len(rs)), make([]map[string]any, len(rs))
	for i, r := range rs {
		ids[i], fields[i] = r.ID, r.Fields
	}
	return digest(ids, fields, paths)
}

func digestDirect(rs []fbnet.Result, paths []string) string {
	ids, fields := make([]int64, len(rs)), make([]map[string]any, len(rs))
	for i, r := range rs {
		ids[i], fields[i] = r.ID, r.Fields
	}
	return digest(ids, fields, paths)
}
