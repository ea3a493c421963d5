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
// reconfig (4 @2s), recovery (4 @4s), reads (4 @4s), conflicts (4 @4s)
// and overload (4) scenarios.
// The simulator is deterministic, so these counts should only move when
// behaviour does: a change to the client retry loop, the replica, or
// the nemesis that shifts one of them must say why in its commit.
// The primary releases responses and fails waiters in trace index
// order, not map order, so every row replays bit for bit; before that,
// the reads and overload sweeps moved on nearly every run.
func TestGoldenSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 32 chaos scenarios")
	}
	sweeps := []struct {
		sc   Scenario
		want []goldenCounts
	}{
		{Scenario{Name: "generic", Duration: 3 * time.Second}, []goldenCounts{
			{514, 12, 506, 8},
			{1179, 0, 1179, 6},
			{1085, 0, 1085, 8},
			{931, 0, 931, 8},
			{777, 12, 769, 6},
			{1181, 0, 1181, 8},
			{791, 0, 791, 8},
			{1240, 0, 1240, 6},
		}},
		{Scenario{Name: "shards", Groups: 4, Duration: 3 * time.Second}, []goldenCounts{
			{7922, 0, 7922, 32},
			{7894, 0, 7894, 32},
		}},
		{Scenario{Name: "rebalance", Groups: 3}, []goldenCounts{
			{2907, 0, 2907, 42},
			{1530, 0, 1530, 42},
		}},
		{Scenario{Name: "reconfig", Duration: 2 * time.Second}, []goldenCounts{
			{942, 0, 942, 8},
			{944, 0, 944, 6},
			{1078, 0, 1078, 8},
			{1021, 0, 1021, 8},
		}},
		{Scenario{Name: "recovery", Duration: 4 * time.Second}, []goldenCounts{
			{1269, 0, 1269, 8},
			{1154, 0, 1154, 6},
			{1263, 0, 1263, 8},
			{1313, 0, 1313, 8},
		}},
		{Scenario{Name: "reads", Duration: 4 * time.Second}, []goldenCounts{
			{965, 0, 965, 4},
			{1001, 0, 1001, 4},
			{873, 0, 873, 4},
			{933, 0, 933, 4},
		}},
		{Scenario{Name: "conflicts", Duration: 4 * time.Second}, []goldenCounts{
			{969, 0, 969, 19},
			{1143, 0, 1143, 19},
			{1222, 0, 1222, 19},
			{1015, 0, 1015, 19},
		}},
		{Scenario{Name: "overload"}, []goldenCounts{
			{1485, 21, 1481, 36},
			{1536, 21, 1534, 36},
			{1428, 12, 1425, 36},
			{1274, 7, 1273, 36},
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
