package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/robotron-net/robotron/internal/reconcile"
)

// drift is one device pushed off its golden config.
type drift struct {
	Device string
	// Console appends a line from the console (ApplyManualChange);
	// otherwise one golden line is cut out-of-band (InjectRunningConfig).
	Console bool
	// Pick chooses the appended address or the cut line.
	Pick uint32
}

// driftPerSite is how many devices of each POP site one storm drifts,
// before capping at the site's shard budget.
const driftPerSite = 3

// siteBudget is the reconciler's default per-shard budget for a site of n
// devices: min(K, X·n), at least 1.
func siteBudget(n int) int {
	b := reconcile.DefaultBudgetDevices
	if f := int(reconcile.DefaultBudgetFraction * float64(n)); f < b {
		b = f
	}
	if b < 1 {
		b = 1
	}
	return b
}

// planDrift draws storms: each takes the next few devices of every site
// from a seeded per-site permutation, so a device drifts again only after
// the whole site has, and alternates console additions and cuts.
func planDrift(seed int64, sites [][]string, storms int) [][]drift {
	rng := rand.New(rand.NewSource(seed))
	perms := make([][]int, len(sites))
	for i, devs := range sites {
		perms[i] = rng.Perm(len(devs))
	}
	out := make([][]drift, storms)
	k := 0
	for s := range out {
		for i, devs := range sites {
			per := min(driftPerSite, siteBudget(len(devs)))
			for j := 0; j < per; j++ {
				dev := devs[perms[i][(s*per+j)%len(devs)]]
				out[s] = append(out[s], drift{Device: dev, Console: k%2 == 0, Pick: rng.Uint32()})
				k++
			}
		}
	}
	return out
}

// stormGap is the virtual time between storms: long enough that a
// device's next drift falls outside the damping window.
func stormGap(sites [][]string) time.Duration {
	recur := len(sites[0]) / min(driftPerSite, siteBudget(len(sites[0])))
	return reconcile.DefaultDampingWindow/time.Duration(recur) + time.Minute
}

const (
	driftWarmup   = 2
	driftPlanLen  = 20000
	repairTimeout = 10 * time.Minute // virtual
)

func runDrift(rc *runCtx) error {
	w := rc.w
	var sites [][]string
	for _, s := range w.siteNames {
		sites = append(sites, w.sites[s])
	}
	plan := planDrift(rc.seed, sites, driftPlanLen)
	gap := stormGap(sites)
	var opTime float64
	restored := 0
	for i, storm := range plan {
		if i == driftWarmup {
			rc.beginWindow()
		} else if i > driftWarmup && rc.done() {
			break
		}
		v := rc.timeOp("storm", func() error { return w.storm(rc, storm) }, func() error {
			devs := make([]string, len(storm))
			for j, d := range storm {
				devs[j] = d.Device
			}
			return w.checkConverged(devs)
		})
		w.settle()
		w.vc.Advance(gap)
		if i < driftWarmup {
			if v == failedLatency {
				return fmt.Errorf("warm-up storm %d failed: %v", i, rc.problems)
			}
			continue
		}
		rc.add("reconcile.storms", 1)
		if v != failedLatency {
			restored += len(storm)
			opTime += v
		}
	}
	rc.endWindow()
	rc.throughput = ratio(float64(restored), opTime/1e3) / rc.share
	rc.nameLatency("repair", rc.lat)
	rc.name("repairs_per_s", rc.throughput, "1/s", restored)
	return nil
}

// storm drifts every device of one storm, then advances the virtual
// clock until each is back on its golden config.
func (w *world) storm(rc *runCtx, storm []drift) error {
	for _, d := range storm {
		if err := w.inject(rc, d); err != nil {
			return err
		}
	}
	deadline := w.vc.Now().Add(repairTimeout)
	for {
		pending := ""
		for _, d := range storm {
			if !w.onGolden(d.Device) {
				pending = d.Device
				break
			}
		}
		if pending == "" {
			return nil
		}
		if w.vc.Now().After(deadline) {
			return fmt.Errorf("%s not repaired within %s", pending, repairTimeout)
		}
		i := rc.tr.start("reconcile.advance")
		w.vc.Advance(time.Second)
		rc.tr.end(i)
	}
}

// inject applies one drift. The call returns after the synchronous
// detection chain: syslog, classifier, config monitor, reconciler.
func (w *world) inject(rc *runCtx, d drift) error {
	dev, ok := w.r.Fleet.Device(d.Device)
	if !ok {
		return fmt.Errorf("%s: not in the fleet", d.Device)
	}
	if d.Console {
		line := fmt.Sprintf("ntp server 10.254.%d.%d", d.Pick>>8&0xff, d.Pick&0xff)
		return rc.tr.call("netsim.inject", func() error { return dev.ApplyManualChange(line) })
	}
	golden, err := w.r.Generator.Golden(d.Device)
	if err != nil {
		return fmt.Errorf("%s: %w", d.Device, err)
	}
	lines := strings.Split(strings.TrimSuffix(golden, "\n"), "\n")
	var kept []string
	cut := -1
	nonEmpty := 0
	for _, l := range lines {
		if strings.TrimSpace(l) != "" {
			nonEmpty++
		}
	}
	target := int(d.Pick % uint32(nonEmpty))
	for _, l := range lines {
		if strings.TrimSpace(l) != "" {
			cut++
			if cut == target {
				continue
			}
		}
		kept = append(kept, l)
	}
	cfg := strings.Join(kept, "\n") + "\n"
	return rc.tr.call("netsim.inject", func() error { return dev.InjectRunningConfig(cfg) })
}

// onGolden reports whether a device runs its golden config with nothing
// pending.
func (w *world) onGolden(name string) bool {
	d, ok := w.r.Fleet.Device(name)
	if !ok {
		return false
	}
	golden, err := w.r.Generator.Golden(name)
	return err == nil && d.PeekRunningConfig() == golden && !d.ConfirmPending()
}
