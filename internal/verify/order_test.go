package verify

import (
	"reflect"
	"testing"

	"github.com/robotron-net/robotron/internal/fbnet"
)

// TestViolationOrderIsTotal: two self-peering sessions on one device tie
// on invariant, device and detail. Model and ID break the tie, so every
// run — incremental or full, whatever order the keys are visited in —
// returns the same Result.
func TestViolationOrderIsTotal(t *testing.T) {
	d, g, c := newFleet(t)
	store := d.Store()
	dev, err := store.FindOne("Device", fbnet.Eq("name", "psw1.pop1-c1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Mutate(func(m *fbnet.Mutation) error {
		for _, model := range []string{"BgpV6Session", "BgpV6Session", "BgpV4Session"} {
			if _, err := m.Create(model, map[string]any{
				"local_device": dev.ID, "remote_device": dev.ID,
				"local_as": int64(65100), "remote_as": int64(65100), "session_type": "ibgp",
			}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	configs := renderSite(t, g)
	var first Result
	for i := 0; i < 20; i++ {
		// A fresh cursor each round re-visits every key in map order.
		c.SetIndex(c.idx)
		for _, check := range []func(map[string]string) (Result, error){c.Check, c.CheckFull} {
			res, err := check(configs)
			if err != nil {
				t.Fatal(err)
			}
			res.Elapsed = 0
			if i == 0 && first.Violations == nil {
				first = res
				self := 0
				for _, v := range res.Violations {
					if v.Detail == "session peers with itself" {
						self++
					}
				}
				if self != 3 {
					t.Fatalf("self-peering violations = %d, want 3: %v", self, res.Violations)
				}
				continue
			}
			if !reflect.DeepEqual(res, first) {
				t.Fatalf("run %d differs:\n got: %v\nwant: %v", i, res.Violations, first.Violations)
			}
		}
	}
}
