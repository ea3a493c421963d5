package shard

import (
	"testing"
	"time"

	"rex/internal/core"
)

// TestReplicaConfigDerivesGroupState pins the per-group derivation every
// sharded host shares: the group id stamped for session tokens, the
// per-group seed, and replica 0's halved election timeout (from the core
// default when the template leaves it zero).
func TestReplicaConfigDerivesGroupState(t *testing.T) {
	cases := []struct {
		name     string
		tmplET   time.Duration
		g, id    int
		wantET   time.Duration
		wantSeed int64
	}{
		{"group 0 replica 0, zero timeout", 0, 0, 0, core.DefaultElectionTimeout / 2, 5},
		{"group 2 replica 0, set timeout", 100 * time.Millisecond, 2, 0, 50 * time.Millisecond, 5 + 2*1009},
		{"group 2 replica 1, set timeout", 100 * time.Millisecond, 2, 1, 100 * time.Millisecond, 5 + 2*1009},
		{"group 1 replica 2, zero timeout", 0, 1, 2, 0, 5 + 1009},
	}
	for _, tc := range cases {
		tmpl := core.Config{Workers: 3, ElectionTimeout: tc.tmplET, Seed: 5}
		got := ReplicaConfig(tmpl, tc.g, tc.id)
		if got.ID != tc.id || got.Group != tc.g {
			t.Errorf("%s: ID/Group = %d/%d, want %d/%d", tc.name, got.ID, got.Group, tc.id, tc.g)
		}
		if got.Seed != tc.wantSeed {
			t.Errorf("%s: Seed = %d, want %d", tc.name, got.Seed, tc.wantSeed)
		}
		if got.ElectionTimeout != tc.wantET {
			t.Errorf("%s: ElectionTimeout = %v, want %v", tc.name, got.ElectionTimeout, tc.wantET)
		}
		if got.Workers != 3 {
			t.Errorf("%s: Workers = %d, want the template's 3", tc.name, got.Workers)
		}
	}
}
