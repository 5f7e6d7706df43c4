package topo

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/robotron-net/robotron/internal/design"
	"github.com/robotron-net/robotron/internal/fbnet"
	"github.com/robotron-net/robotron/internal/relstore"
)

func testCtx() design.ChangeContext {
	return design.ChangeContext{
		EmployeeID: "e1", TicketID: "T-1", Description: "test",
		Domain: "backbone", NowUnix: 1_700_000_000,
	}
}

func newDesigner(t *testing.T) *design.Designer {
	t.Helper()
	store, err := fbnet.Open(relstore.NewDB("master"), fbnet.NewCatalog())
	if err != nil {
		t.Fatal(err)
	}
	d, err := design.NewDesigner(store, design.DefaultPools())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EnsureStandardHardware(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct{ name, kind string }{{"pop1", "pop"}, {"bb-east", "backbone"}} {
		if _, err := d.EnsureSite(s.name, s.kind, "nam"); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// snapshot reads the index's state without advancing it further.
func snapshot(t *testing.T, x *Index) *Topology {
	t.Helper()
	var out *Topology
	if err := x.View(func(tp *Topology) { out = tp }); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTailMatchesRebuild: an index that tails the binlog through a
// random design history holds exactly the state a fresh rebuild reads,
// graph, subnets and tries included.
func TestTailMatchesRebuild(t *testing.T) {
	d := newDesigner(t)
	store := d.Store()
	x := New(store)
	snapshot(t, x)
	rng := rand.New(rand.NewSource(1))
	routers := []string{}
	circuits := func() []fbnet.Object {
		cs, _ := store.Find("Circuit", fbnet.Contains("circuit_id", "bb"))
		return cs
	}
	for step := 0; step < 40; step++ {
		switch k := rng.Intn(6); {
		case k == 0 || len(routers) < 3:
			name := fmt.Sprintf("bb%d", step)
			if _, err := d.AddBackboneRouter(testCtx(), name, "bb-east", "Backbone_Vendor2", "bb"); err != nil {
				t.Fatal(err)
			}
			routers = append(routers, name)
		case k == 1:
			cl := fmt.Sprintf("pop1-c%d", step)
			if _, err := d.BuildCluster(testCtx(), "pop1", cl, design.POPGen1()); err != nil {
				t.Fatal(err)
			}
		case k == 2 || k == 3:
			a, z := routers[rng.Intn(len(routers))], routers[rng.Intn(len(routers))]
			if a != z {
				_, _ = d.AddBackboneCircuit(testCtx(), a, z, 1)
			}
		case k == 4:
			if cs := circuits(); len(cs) > 0 {
				_, _ = d.DeleteCircuit(testCtx(), cs[rng.Intn(len(cs))].String("circuit_id"))
			}
		default:
			if cs := circuits(); len(cs) > 0 {
				_, _ = d.MigrateCircuit(testCtx(), cs[rng.Intn(len(cs))].String("circuit_id"),
					routers[rng.Intn(len(routers))])
			}
		}
		got, want := snapshot(t, x), snapshot(t, New(store))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: tailed index differs from a rebuild", step)
		}
	}
}

// TestCursorRules: a fresh cursor reads Full, a current one reads only
// what changed, and a schema change forces a rebuild that sends every
// consumer back to Full.
func TestCursorRules(t *testing.T) {
	d := newDesigner(t)
	store := d.Store()
	x := New(store)
	read := func(since uint64) (uint64, Delta) {
		var delta Delta
		next, err := x.Read(since, func(_ *Topology, dd Delta) error {
			delta = dd
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return next, delta
	}
	cur, d0 := read(0)
	if !d0.Full {
		t.Fatal("first read is not Full")
	}
	if _, err := d.AddBackboneRouter(testCtx(), "bb1", "bb-east", "Backbone_Vendor2", "bb"); err != nil {
		t.Fatal(err)
	}
	cur, d1 := read(cur)
	if d1.Full || len(d1.Keys) == 0 {
		t.Fatalf("delta after one router = %+v", d1)
	}
	if _, d2 := read(cur); d2.Full || len(d2.Keys) != 0 {
		t.Fatalf("delta with nothing changed = %+v", d2)
	}
	if err := store.AddField("Device", fbnet.Field{Name: "rack_unit", Type: relstore.ColInt, Nullable: true}); err != nil {
		t.Fatal(err)
	}
	if _, d3 := read(cur); !d3.Full {
		t.Fatal("schema change did not send the consumer back to Full")
	}
}
