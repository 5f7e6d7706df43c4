package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
)

// churnOp is one backbone design change. Every circuit the workload
// manages is a single-circuit bundle, so any of them can migrate.
type churnOp struct {
	Kind string // "add", "delete" or "migrate"
	A, Z string // the circuit's ends (A stays put on a migrate)
	NewZ string // migrate only
}

// planChurn draws n changes over a model of the backbone's circuits,
// starting from the ring buildBackbone lays. Changes come in blocks of one
// add, one delete and one migrate in a seeded order, so every seed has the
// same mix and the circuit count stays within one of the ring's; the
// seed picks the order and the circuits. Equal adds and deletes hold the
// count; migrate's equal share is an assumption (README.md). migrateOnly
// draws migrations alone.
func planChurn(seed int64, routers []string, n int, migrateOnly bool) []churnOp {
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ a, z string }
	var circuits []pair
	for i := range routers {
		circuits = append(circuits, pair{routers[i], routers[(i+1)%len(routers)]})
	}
	linked := func(a, z string) bool {
		for _, c := range circuits {
			if (c.a == a && c.z == z) || (c.a == z && c.z == a) {
				return true
			}
		}
		return false
	}
	block := []string{"add", "delete", "migrate"}
	if migrateOnly {
		block = []string{"migrate"}
	}
	var free []pair
	ops := make([]churnOp, 0, n)
	for len(ops) < n {
		for _, k := range rng.Perm(len(block)) {
			switch block[k] {
			case "add":
				free = free[:0]
				for i, a := range routers {
					for _, z := range routers[i+1:] {
						if !linked(a, z) {
							free = append(free, pair{a, z})
						}
					}
				}
				p := free[rng.Intn(len(free))]
				if rng.Intn(2) == 1 {
					p = pair{p.z, p.a}
				}
				circuits = append(circuits, p)
				ops = append(ops, churnOp{Kind: "add", A: p.a, Z: p.z})
			case "delete":
				i := rng.Intn(len(circuits))
				c := circuits[i]
				circuits = append(circuits[:i], circuits[i+1:]...)
				ops = append(ops, churnOp{Kind: "delete", A: c.a, Z: c.z})
			case "migrate":
				i := rng.Intn(len(circuits))
				c := circuits[i]
				var targets []string
				for _, r := range routers {
					if r != c.a && r != c.z && !linked(c.a, r) {
						targets = append(targets, r)
					}
				}
				if len(targets) == 0 {
					continue // every other router already links to c.a
				}
				nz := targets[rng.Intn(len(targets))]
				circuits[i].z = nz
				ops = append(ops, churnOp{Kind: "migrate", A: c.a, Z: c.z, NewZ: nz})
			}
		}
	}
	return ops[:n]
}

// devices is the set the change touches, which GenerateAndDeploy gets.
func (op churnOp) devices() []string {
	if op.Kind == "migrate" {
		return []string{op.A, op.Z, op.NewZ}
	}
	return []string{op.A, op.Z}
}

// churnPlanLen bounds how many changes one run can draw; a run stops at
// its deadline long before.
const churnPlanLen = 100000

// churnWarmup changes run before the measured window.
const churnWarmup = 4

func runChurn(rc *runCtx) error {
	w := rc.w
	ids, err := w.backboneCircuits()
	if err != nil {
		return err
	}
	plan := planChurn(rc.seed, w.backbone, churnPlanLen, false)
	var opTime float64
	ok := 0
	var gateID int64
	for i, op := range plan {
		if i == churnWarmup {
			if _, _, gateID, err = w.verifiedDevices(0); err != nil {
				return err
			}
			rc.beginWindow()
		} else if i > churnWarmup && rc.done() {
			break
		}
		v := rc.timeOp("change", func() error { return w.change(rc, op, ids) }, func() error {
			return w.checkConverged(op.devices())
		})
		if i < churnWarmup {
			if v == failedLatency {
				return fmt.Errorf("warm-up change %d (%s) failed: %v", i, op.Kind, rc.problems)
			}
			continue
		}
		if v != failedLatency {
			ok++
			opTime += v
		}
	}
	rc.endWindow()
	devices, gates, _, err := w.verifiedDevices(gateID)
	if err != nil {
		return err
	}
	rc.add("verify.devices", float64(devices))
	rc.add("verify.gates", float64(gates))
	rc.throughput = ratio(float64(ok), opTime/1e3) / rc.share
	rc.nameLatency("change", rc.lat)
	rc.name("changes_per_s", rc.throughput, "1/s", ok)
	return nil
}

// change carries one design change through design, the simulated
// cabling work order, fleet sync and GenerateAndDeploy. ids maps "A|Z"
// to the circuit's FBNet object id and is kept current.
func (w *world) change(rc *runCtx, op churnOp, ids map[string]int64) error {
	tr, r := rc.tr, w.r
	ctx := w.changeCtx("bench " + op.Kind + " " + op.A + "--" + op.Z)
	key := op.A + "|" + op.Z
	var res design.ChangeResult
	var err error
	switch op.Kind {
	case "add":
		i := tr.start("design.change")
		res, err = r.Designer.AddBackboneCircuit(ctx, op.A, op.Z, 1)
		tr.end(i)
		if err != nil {
			return fmt.Errorf("add %s: %w", key, err)
		}
		id, err := createdCircuit(res)
		if err != nil {
			return err
		}
		ids[key] = id
	case "delete", "migrate":
		id, ok := ids[key]
		if !ok {
			return fmt.Errorf("%s: no circuit %s", op.Kind, key)
		}
		circuitID, aIf, err := w.circuitAEnd(id)
		if err != nil {
			return err
		}
		i := tr.start("design.change")
		if op.Kind == "delete" {
			res, err = r.Designer.DeleteCircuit(ctx, circuitID)
		} else {
			res, err = r.Designer.MigrateCircuit(ctx, circuitID, op.NewZ)
		}
		tr.end(i)
		if err != nil {
			return fmt.Errorf("%s %s: %w", op.Kind, circuitID, err)
		}
		delete(ids, key)
		if op.Kind == "migrate" {
			ids[op.A+"|"+op.NewZ] = id
		}
		// The technician pulls the old cable; SyncFleet lays the new one.
		i = tr.start("netsim.cable")
		r.Fleet.Uncable(op.A, aIf)
		tr.end(i)
	}
	rc.add("design.changes", 1)
	rc.add("design.objects", float64(res.Stats.Total()))
	if err := tr.call("core.sync_fleet", r.SyncFleet); err != nil {
		return fmt.Errorf("sync fleet: %w", err)
	}
	return w.generateAndDeploy(rc, op.devices())
}

// generateAndDeploy runs core's pipeline on devices and hangs the
// program's own stage spans under the call.
func (w *world) generateAndDeploy(rc *runCtx, devices []string) error {
	i := rc.tr.start("core.generate_and_deploy")
	_, err := w.r.GenerateAndDeploy(devices, deploy.Options{}, "e-bench")
	rc.tr.end(i)
	if i >= 0 {
		t0 := time.Now()
		if root, ok := w.r.Tracer.Last(); ok && root.Name == "generate-and-deploy" {
			rc.tr.attachStages(i, root)
		}
		rc.tr.cost += time.Since(t0)
	}
	if err != nil {
		return fmt.Errorf("generate and deploy %v: %w", devices, err)
	}
	return nil
}

func createdCircuit(res design.ChangeResult) (int64, error) {
	for _, ref := range res.Stats.Created {
		if ref.Model == "Circuit" {
			return ref.ID, nil
		}
	}
	return 0, fmt.Errorf("design created no circuit")
}

// backboneCircuits maps each backbone circuit "A|Z" to its object id.
func (w *world) backboneCircuits() (map[string]int64, error) {
	out := map[string]int64{}
	for i, a := range w.backbone {
		z := w.backbone[(i+1)%len(w.backbone)]
		c, err := w.findCircuit(a, z)
		if err != nil {
			return nil, err
		}
		out[a+"|"+z] = c
	}
	return out, nil
}

// checkConverged is the output check of a change: each device's running
// config equals its golden, with no candidate staged and no
// commit-confirm pending.
func (w *world) checkConverged(devices []string) error {
	sorted := append([]string(nil), devices...)
	sort.Strings(sorted)
	for _, name := range sorted {
		d, ok := w.r.Fleet.Device(name)
		if !ok {
			return fmt.Errorf("%s: not in the fleet", name)
		}
		golden, err := w.r.Generator.Golden(name)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if d.PeekRunningConfig() != golden {
			return fmt.Errorf("%s: running config differs from golden", name)
		}
		if d.HasCandidate() {
			return fmt.Errorf("%s: candidate left staged", name)
		}
		if d.ConfirmPending() {
			return fmt.Errorf("%s: commit-confirm pending", name)
		}
	}
	return nil
}
