package chaos

import (
	"fmt"
	"testing"
	"time"

	"rex/internal/obs"
)

// goldenCounts is one scenario's pinned shape: operations recorded,
// unknown outcomes, operations the checker verified, and its partitions.
type goldenCounts struct {
	Ops, Timeouts, Checked, Parts int
}

func (g goldenCounts) String() string {
	return fmt.Sprintf("ops=%d timeouts=%d checked=%d parts=%d", g.Ops, g.Timeouts, g.Checked, g.Parts)
}

// TestGoldenSweeps pins the seed-1 sweeps `make chaos` runs for the
// generic (8 scenarios), sharded (2), rebalance (2, 3 groups),
// reconfig (4 @2s), recovery (4 @4s) and conflicts (4 @4s) scenarios.
// The simulator is deterministic, so these counts only move when
// behaviour does: a change to the client retry loop, the replica, or
// the nemesis that shifts one of them must say why in its commit.
// The reads and overload sweeps are left out because they do not yet
// replay bit for bit: two runs of reads seed 3 gave 1027 and 1005 ops,
// and three runs of overload seed 1 gave 1502, 1519 and 1613. Their
// pinned-seed verdict tests cover them instead.
func TestGoldenSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 24 chaos scenarios")
	}
	sweeps := []struct {
		sc   Scenario
		want []goldenCounts
	}{
		{Scenario{Name: "generic", Duration: 3 * time.Second}, []goldenCounts{
			{508, 28, 480, 8},
			{1179, 0, 1179, 6},
			{1101, 0, 1101, 8},
			{931, 0, 931, 8},
			{777, 12, 769, 6},
			{1180, 0, 1180, 8},
			{840, 0, 840, 8},
			{1024, 0, 1024, 6},
		}},
		{Scenario{Name: "shards", Groups: 4, Duration: 3 * time.Second}, []goldenCounts{
			{7922, 0, 7922, 32},
			{7894, 0, 7894, 32},
		}},
		{Scenario{Name: "rebalance", Groups: 3}, []goldenCounts{
			{2849, 0, 2849, 42},
			{1527, 0, 1527, 42},
		}},
		{Scenario{Name: "reconfig", Duration: 2 * time.Second}, []goldenCounts{
			{942, 0, 942, 8},
			{944, 0, 944, 6},
			{1077, 0, 1077, 8},
			{1021, 0, 1021, 8},
		}},
		{Scenario{Name: "recovery", Duration: 4 * time.Second}, []goldenCounts{
			{1339, 0, 1339, 8},
			{1224, 0, 1224, 6},
			{1065, 0, 1065, 8},
			{1242, 0, 1242, 8},
		}},
		{Scenario{Name: "conflicts", Duration: 4 * time.Second}, []goldenCounts{
			{961, 0, 961, 19},
			{1135, 0, 1135, 19},
			{1231, 0, 1231, 19},
			{964, 0, 964, 19},
		}},
	}
	for _, sw := range sweeps {
		for i, want := range sw.want {
			sc := sw.sc
			sc.Seed = int64(1 + i)
			res := runScenario(t, sc, nil, nil)
			got := goldenCounts{res.Ops, res.Timeouts, res.Checked, res.Parts}
			if !res.OK || got != want {
				t.Errorf("%s seed %d: %v ok=%v, want %v ok=true %v", sc.Name, sc.Seed, got, res.OK, want, res.Violations)
			}
		}
	}
}

// runScenario completes sc from its preset and runs it.
func runScenario(t *testing.T, sc Scenario, reg *obs.Registry, logf func(string, ...any)) Result {
	t.Helper()
	sc, err := NewScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	return sc.Run(reg, logf)
}
