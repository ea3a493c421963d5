package chaos

import (
	"testing"

	"rex/internal/obs"
)

// TestRebalanceScenario runs the live-rebalancing chaos scenario on a
// pinned seed: at least one split, one merge, and one move must complete
// while primaries are killed and restarted underneath the migration, and
// the global routed history, the per-group replica states, and every
// client's session guarantees must all check out afterwards.
func TestRebalanceScenario(t *testing.T) {
	reg := obs.NewRegistry()
	res := runScenario(t, Scenario{Name: "rebalance", Seed: 9, Groups: 3, Clients: 4}, reg, t.Logf)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if !res.OK {
		t.Fatalf("scenario failed: faults=%d %v", res.Faults, res.Counts)
	}
	for _, name := range []string{"splits", "merges", "moves"} {
		if res.Count(name) < 1 {
			t.Errorf("plan incomplete: %s = %d, want >= 1", name, res.Count(name))
		}
	}
	if res.Faults < 1 {
		t.Fatalf("no primary was killed during the churn")
	}
	if res.Ops == 0 {
		t.Fatal("no operations recorded")
	}
	snap := reg.Snapshot()
	if snap.Counter("rex_rebalance_total") == 0 {
		t.Error("rex_rebalance_total = 0, want > 0")
	}
	if snap.Counter("rex_rebalance_moved_bytes") == 0 {
		t.Error("rex_rebalance_moved_bytes = 0, want > 0")
	}
}
