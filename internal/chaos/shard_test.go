package chaos

import (
	"testing"
	"time"

	"rex/internal/obs"
)

// TestShardScenarioIsolation kills one group's primary under load and
// verifies the blast radius stays inside that group: the other groups
// keep committing, the victim re-elects, and the history stays
// linearizable.
func TestShardScenarioIsolation(t *testing.T) {
	reg := obs.NewRegistry()
	res := runScenario(t, Scenario{
		Name:     "shards",
		Seed:     3,
		Groups:   3,
		Clients:  6,
		Duration: 1400 * time.Millisecond,
	}, reg, t.Logf)
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if !res.OK {
		t.Fatalf("scenario failed: %v", res.Counts)
	}
	if res.Count("killed_group") != 0 || res.Count("survivor_min_pct") < 50 {
		t.Fatalf("seed 3 of 3 groups must kill group 0 and keep survivors at half speed: %v", res.Counts)
	}
	if res.Ops == 0 || res.Parts != 24 {
		t.Fatalf("ops=%d parts=%d, want ops > 0 over 24 keys", res.Ops, res.Parts)
	}
	snap := reg.Snapshot()
	if snap.Counter("chaos_fault_crash_primary") != 1 || res.Faults != 1 {
		t.Errorf("chaos_fault_crash_primary = %d, faults = %d, want 1 each", snap.Counter("chaos_fault_crash_primary"), res.Faults)
	}
}
