package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/robotron-net/robotron/internal/core"
	"github.com/robotron-net/robotron/internal/deploy"
	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/fbnet/service"
	"github.com/robotron-net/robotron/internal/vclock"
)

// shape sizes the simulated fleet. Every workload runs on fullShape; the
// tests use tinyShape so a smoke run of each workload takes a second.
type shape struct {
	Sites           int // POP sites
	ClustersPerSite int // POPGen1 clusters (6 devices each) per site
	Backbone        int // backbone routers in bb-east
}

var (
	fullShape = shape{Sites: 8, ClustersPerSite: 5, Backbone: 8}
	tinyShape = shape{Sites: 2, ClustersPerSite: 1, Backbone: 4}
)

// backboneSite holds the backbone mesh.
const backboneSite = "bb-east"

// world is one simulated Robotron instance and the fleet it manages.
type world struct {
	vc  *vclock.VirtualClock
	r   *core.Robotron
	dep *service.Deployment // fbnet-read only; nil otherwise

	popDevices []string            // sorted POP device names
	backbone   []string            // backbone router names, bb1..bbN
	sites      map[string][]string // POP site -> sorted device names
	siteNames  []string            // sorted POP site names
	clusters   []string            // cluster names in build order

	// setupCheckErrors is the reconciler's check-error count when setup
	// ended (see the defect note in README.md).
	setupCheckErrors int64
}

func (w *world) changeCtx(desc string) design.ChangeContext {
	return design.ChangeContext{
		EmployeeID: "e-bench", TicketID: "T-bench", Description: desc,
		Domain: "backbone", NowUnix: w.vc.Now().Unix(),
	}
}

// buildWorld provisions the fleet with core's production defaults —
// reconciler, alarms and verify gate on, package default budgets and
// parallelism — overriding only the clock. withService puts the FBNet
// store behind a replicated service deployment (master nam, replica apac).
//
// The virtual clock starts at the wall time of set-up, as a deployed
// instance's would, so the stamps still taken from the wall clock
// (ROADMAP item 4) land near virtual time rather than in its future.
func buildWorld(sh shape, withService bool, tr *tracer) (*world, error) {
	w := &world{vc: vclock.NewVirtualClock(time.Now().Truncate(time.Second)), sites: map[string][]string{}}
	opts := core.Options{Clock: w.vc, EnableReconciler: true}
	if withService {
		dep, err := service.NewDeployment(fbnet.NewCatalog(), "nam", []string{"nam", "apac"}, 1)
		if err != nil {
			return nil, fmt.Errorf("service deployment: %w", err)
		}
		w.dep = dep
		opts.Store = dep.MasterStore()
	}
	r, err := core.New(opts)
	if err != nil {
		w.close()
		return nil, fmt.Errorf("core: %w", err)
	}
	w.r = r
	regions := []string{"nam", "emea", "apac"}
	for s := 1; s <= sh.Sites; s++ {
		site := fmt.Sprintf("pop%d", s)
		if _, err := r.Designer.EnsureSite(site, "pop", regions[s%len(regions)]); err != nil {
			w.close()
			return nil, err
		}
		w.siteNames = append(w.siteNames, site)
		for c := 1; c <= sh.ClustersPerSite; c++ {
			cluster := fmt.Sprintf("%s-c%d", site, c)
			i := tr.start("core.provision")
			_, err := r.ProvisionCluster(w.changeCtx("provision "+cluster), site, cluster, design.POPGen1())
			tr.end(i)
			if err != nil {
				w.close()
				return nil, fmt.Errorf("provision %s: %w", cluster, err)
			}
			w.clusters = append(w.clusters, cluster)
		}
		devs, err := r.DevicesOfSite(site)
		if err != nil {
			w.close()
			return nil, err
		}
		sort.Strings(devs)
		w.sites[site] = devs
		w.popDevices = append(w.popDevices, devs...)
	}
	sort.Strings(w.popDevices)
	if err := w.buildBackbone(sh.Backbone); err != nil {
		w.close()
		return nil, err
	}
	w.settle()
	w.setupCheckErrors = r.Reconciler.Stats().CheckErrors
	if withService {
		if _, err := w.dep.EnableDesignAPI(design.DefaultPools()); err != nil {
			w.close()
			return nil, fmt.Errorf("design API: %w", err)
		}
		if err := w.dep.Replicate(); err != nil {
			w.close()
			return nil, fmt.Errorf("replicate: %w", err)
		}
	}
	return w, nil
}

// buildBackbone adds a ring of backbone routers (one circuit per
// neighbouring pair) and deploys it.
func (w *world) buildBackbone(n int) error {
	r := w.r
	if _, err := r.Designer.EnsureSite(backboneSite, "backbone", "nam"); err != nil {
		return err
	}
	for i := 1; i <= n; i++ {
		name := fmt.Sprintf("bb%d", i)
		if _, err := r.Designer.AddBackboneRouter(w.changeCtx("add "+name), name, backboneSite, "Backbone_Vendor2", "bb"); err != nil {
			return fmt.Errorf("add %s: %w", name, err)
		}
		w.backbone = append(w.backbone, name)
	}
	for i := range w.backbone {
		a, z := w.backbone[i], w.backbone[(i+1)%n]
		if _, err := r.Designer.AddBackboneCircuit(w.changeCtx("ring "+a+"--"+z), a, z, 1); err != nil {
			return fmt.Errorf("circuit %s--%s: %w", a, z, err)
		}
	}
	if _, err := r.PromoteCircuits(); err != nil {
		return err
	}
	if err := r.SyncFleet(); err != nil {
		return err
	}
	if _, err := r.GenerateAndDeploy(w.backbone, deploy.Options{}, "e-bench"); err != nil {
		return fmt.Errorf("deploy backbone: %w", err)
	}
	return nil
}

// settle advances virtual time one second at a time until no timer is
// pending: every check retry, backoff and commit-confirm has run out.
func (w *world) settle() {
	for i := 0; i < 3600 && w.vc.PendingTimers() > 0; i++ {
		w.vc.Advance(time.Second)
	}
}

// mgmtOps is the management-session verb count summed over the fleet.
func (w *world) mgmtOps() int64 {
	var n int64
	for _, d := range w.r.Fleet.Devices() {
		n += d.MgmtOps()
	}
	return n
}

func (w *world) close() {
	if w.r != nil && w.r.Reconciler != nil {
		w.r.Reconciler.Stop()
	}
	if w.dep != nil {
		w.dep.Close()
	}
}
