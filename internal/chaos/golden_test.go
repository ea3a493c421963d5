package chaos

import (
	"fmt"
	"testing"
	"time"

	"rex/internal/check"
)

// goldenCounts is one scenario's pinned shape: operations recorded,
// unknown outcomes, operations the checker verified, and its partitions.
type goldenCounts struct {
	Ops, Timeouts, Checked, Parts int
}

func (g goldenCounts) String() string {
	return fmt.Sprintf("ops=%d timeouts=%d checked=%d parts=%d", g.Ops, g.Timeouts, g.Checked, g.Parts)
}

func sumChecks(checks []check.Result) (ops, parts int) {
	for _, c := range checks {
		ops += c.Ops
		parts += c.Partitions
	}
	return ops, parts
}

// TestGoldenSweeps pins the seed-1 sweeps `make chaos` runs for the
// generic (8 scenarios), sharded (2) and rebalance (2, 3 groups)
// scenarios. The simulator is deterministic, so these counts only move
// when behaviour does: a change to the client retry loop, the replica,
// or the nemesis that shifts one of them must say why in its commit.
// The -reads and -overload sweeps are left out: they do not reproduce
// run to run.
func TestGoldenSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 12 chaos scenarios")
	}
	generic := []goldenCounts{
		{508, 28, 480, 8},
		{1135, 0, 1135, 6},
		{1038, 0, 1038, 8},
		{882, 0, 882, 8},
		{777, 12, 769, 6},
		{1180, 0, 1180, 8},
		{840, 4, 836, 8},
		{1343, 0, 1343, 6},
	}
	for i, want := range generic {
		seed := int64(1 + i)
		sc, err := NewScenario(seed, "all", 3*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		res := sc.Run(nil, nil)
		got := goldenCounts{res.Ops, res.Timeouts, res.Check.Ops, res.Check.Partitions}
		if !res.OK || got != want {
			t.Errorf("generic seed %d: %v ok=%v, want %v ok=true %v", seed, got, res.OK, want, res.Violations)
		}
	}

	shards := []goldenCounts{
		{7922, 0, 7922, 32},
		{7894, 0, 7894, 32},
	}
	for i, want := range shards {
		seed := int64(1 + i)
		res := RunShardScenario(ShardScenarioConfig{Seed: seed, Groups: 4, Phase: 1500 * time.Millisecond}, nil, nil)
		checked, parts := sumChecks(res.Checks)
		got := goldenCounts{res.Ops, res.Timeouts, checked, parts}
		if !res.OK || got != want {
			t.Errorf("shards seed %d: %v ok=%v, want %v ok=true %v", seed, got, res.OK, want, res.Violations)
		}
	}

	rebalance := []goldenCounts{
		{2849, 0, 2849, 42},
		{1527, 0, 1527, 42},
	}
	for i, want := range rebalance {
		seed := int64(1 + i)
		res := RunRebalanceScenario(RebalanceScenarioConfig{Seed: seed, Groups: 3, Nodes: 3}, nil, nil)
		checked, parts := sumChecks(res.Checks)
		got := goldenCounts{res.Ops, res.Timeouts, checked, parts}
		if !res.OK || got != want {
			t.Errorf("rebalance seed %d: %v ok=%v, want %v ok=true %v", seed, got, res.OK, want, res.Violations)
		}
	}
}
