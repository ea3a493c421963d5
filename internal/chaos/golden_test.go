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
			{1135, 0, 1135, 6},
			{1038, 0, 1038, 8},
			{882, 0, 882, 8},
			{777, 12, 769, 6},
			{1180, 0, 1180, 8},
			{840, 4, 836, 8},
			{1343, 0, 1343, 6},
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
			{929, 0, 929, 8},
			{905, 0, 905, 6},
			{1073, 0, 1073, 8},
			{1020, 0, 1020, 8},
		}},
		{Scenario{Name: "recovery", Duration: 4 * time.Second}, []goldenCounts{
			{1305, 0, 1305, 8},
			{1139, 0, 1139, 6},
			{1214, 0, 1214, 8},
			{1242, 0, 1242, 8},
		}},
		{Scenario{Name: "conflicts", Duration: 4 * time.Second}, []goldenCounts{
			{982, 0, 982, 19},
			{1156, 0, 1156, 19},
			{1203, 0, 1203, 19},
			{960, 0, 960, 19},
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
