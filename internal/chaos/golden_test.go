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
// The simulator is deterministic, so these counts should only move when
// behaviour does: a change to the client retry loop, the replica, or
// the nemesis that shifts one of them must say why in its commit.
// Recovery seed 1 does not yet replay bit for bit: in 4 of 8 runs it
// gave ops=1265 against the pinned 1266, because
// releaseResponsesLocked (core/primary.go) walks the pending map in
// random order (see the determinism item in ROADMAP.md).
// The reads and overload sweeps are left out because they drift
// further: two runs of reads seed 3 gave 1027 and 1005 ops, and three
// runs of overload seed 1 gave 1502, 1519 and 1613. Their pinned-seed
// verdict tests cover them instead.
func TestGoldenSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 24 chaos scenarios")
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
			{968, 0, 968, 6},
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
			{1078, 0, 1078, 8},
			{1021, 0, 1021, 8},
		}},
		{Scenario{Name: "recovery", Duration: 4 * time.Second}, []goldenCounts{
			{1266, 0, 1266, 8},
			{1292, 0, 1292, 6},
			{1246, 0, 1246, 8},
			{1204, 0, 1204, 8},
		}},
		{Scenario{Name: "conflicts", Duration: 4 * time.Second}, []goldenCounts{
			{969, 0, 969, 19},
			{1143, 0, 1143, 19},
			{1240, 0, 1240, 19},
			{1015, 0, 1015, 19},
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
