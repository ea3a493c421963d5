package cluster_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"rex/internal/apps/hashdb"
	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/readpath"
	"rex/internal/shard"
	"rex/internal/sim"
)

// TestMultiClusterShardedFailover is the sharding end-to-end test (run
// under -race in CI): four groups over four nodes, keyed writes spread
// across all groups, then group 0's primary is killed. The other groups
// must keep serving without interruption while group 0 fails over, and
// every key must read back from its owning group afterwards.
func TestMultiClusterShardedFailover(t *testing.T) {
	e := sim.New(2)
	var failure string
	fail := func(format string, args ...any) {
		if failure == "" {
			failure = fmt.Sprintf(format, args...)
		}
	}
	e.Run(func() {
		m, err := shard.NewShardMap(1, 4, 4, 3)
		if err != nil {
			fail("map: %v", err)
			return
		}
		mc, err := cluster.NewMulti(e, hashdb.New(hashdb.DefaultOptions()), m, cluster.Options{
			Template: core.Config{
				Workers:         2,
				Timers:          hashdb.Timers(),
				HeartbeatEvery:  20 * time.Millisecond,
				ElectionTimeout: 100 * time.Millisecond,
				Seed:            7,
			},
		})
		if err != nil {
			fail("new multi: %v", err)
			return
		}
		if err := mc.Start(); err != nil {
			fail("start: %v", err)
			return
		}
		defer mc.Stop()
		if err := mc.WaitAllPrimaries(10 * time.Second); err != nil {
			fail("%v", err)
			return
		}

		router := mc.NewRouter(100)
		const keys = 64
		covered := make(map[int]bool)
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("key-%d", i)
			covered[router.GroupFor([]byte(key))] = true
			if _, err := router.Do([]byte(key), hashdb.SetReq(key, []byte(fmt.Sprintf("v%d", i)))); err != nil {
				fail("set %s: %v", key, err)
				return
			}
		}
		if len(covered) != 4 {
			fail("64 keys covered only %d of 4 groups", len(covered))
			return
		}

		// Kill group 0's primary. The other groups share nodes with group 0
		// but must not notice: each write below gets a tight deadline that a
		// stalled group would blow.
		if _, err := mc.CrashGroupPrimary(0); err != nil {
			fail("crash: %v", err)
			return
		}
		for g := 1; g < 4; g++ {
			cl := mc.Groups[g].NewClient(uint64(900 + g))
			key := fmt.Sprintf("during-%d", g)
			if _, err := cl.DoTimeout(hashdb.SetReq(key, []byte("x")), 2*time.Second); err != nil {
				fail("group %d stalled during group 0 failover: %v", g, err)
				return
			}
		}

		// Group 0 itself fails over and serves again.
		if _, err := mc.Groups[0].WaitPrimary(10 * time.Second); err != nil {
			fail("group 0 failover: %v", err)
			return
		}
		cl0 := mc.Groups[0].NewClient(990)
		if _, err := cl0.DoTimeout(hashdb.SetReq("after-failover", []byte("y")), 10*time.Second); err != nil {
			fail("group 0 write after failover: %v", err)
			return
		}

		// Every key reads back from its owning group's new state.
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("key-%d", i)
			resp, err := router.Do([]byte(key), hashdb.GetReq(key))
			if err != nil {
				fail("get %s: %v", key, err)
				return
			}
			if want := []byte(fmt.Sprintf("v%d", i)); !bytes.Contains(resp, want) {
				fail("get %s = %q, want value %q", key, resp, want)
				return
			}
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
}

// TestMultiClusterRotatesPrimaries checks that the election bias realizes
// the map's placement: with no faults, each group elects its preferred
// primary (replica 0), whose node rotates across the cluster.
func TestMultiClusterRotatesPrimaries(t *testing.T) {
	e := sim.New(2)
	var failure string
	e.Run(func() {
		m, _ := shard.NewShardMap(1, 4, 4, 3)
		mc, err := cluster.NewMulti(e, hashdb.New(hashdb.DefaultOptions()), m, cluster.Options{
			Template: core.Config{
				Workers:         2,
				Timers:          hashdb.Timers(),
				HeartbeatEvery:  20 * time.Millisecond,
				ElectionTimeout: 100 * time.Millisecond,
				Seed:            11,
			},
		})
		if err != nil {
			failure = err.Error()
			return
		}
		if err := mc.Start(); err != nil {
			failure = err.Error()
			return
		}
		defer mc.Stop()
		if err := mc.WaitAllPrimaries(10 * time.Second); err != nil {
			failure = err.Error()
			return
		}
		nodes := make(map[int]bool)
		for g := 0; g < 4; g++ {
			p := mc.Primary(g)
			if p != 0 {
				failure = fmt.Sprintf("group %d elected replica %d, want preferred primary 0", g, p)
				return
			}
			nodes[m.Placement[g][p]] = true
		}
		if len(nodes) != 4 {
			failure = fmt.Sprintf("primaries on %d distinct nodes, want 4", len(nodes))
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
}

// TestMultiClusterStampsGroupInSessionTokens checks that NewMulti derives
// replicas the way sharded processes do: each group stamps its id into
// the session tokens it mints, and a secondary refuses a token minted by
// another group.
func TestMultiClusterStampsGroupInSessionTokens(t *testing.T) {
	e := sim.New(2)
	var failure string
	fail := func(format string, args ...any) {
		if failure == "" {
			failure = fmt.Sprintf(format, args...)
		}
	}
	e.Run(func() {
		m, _ := shard.NewShardMap(1, 2, 3, 3)
		mc, err := cluster.NewMulti(e, hashdb.New(hashdb.DefaultOptions()), m, cluster.Options{
			Template: core.Config{
				Workers:         2,
				Timers:          hashdb.Timers(),
				ReadWorkers:     1,
				HeartbeatEvery:  20 * time.Millisecond,
				ElectionTimeout: 100 * time.Millisecond,
				Seed:            5,
			},
		})
		if err != nil {
			fail("new multi: %v", err)
			return
		}
		if err := mc.Start(); err != nil {
			fail("start: %v", err)
			return
		}
		defer mc.Stop()
		if err := mc.WaitAllPrimaries(10 * time.Second); err != nil {
			fail("%v", err)
			return
		}
		toks := make([]readpath.Token, m.Groups())
		for g := range toks {
			p := mc.Groups[g].Replica(mc.Primary(g))
			_, tok, err := p.SubmitToken(uint64(700+g), 1, hashdb.SetReq("k", []byte("v")))
			if err != nil {
				fail("group %d write: %v", g, err)
				return
			}
			if tok.Group != g {
				fail("group %d minted a token for group %d", g, tok.Group)
				return
			}
			toks[g] = tok
		}
		sec := mc.Groups[0].Replica((mc.Primary(0) + 1) % m.Replicas(0))
		if _, _, err := sec.QueryLevel(readpath.Session, toks[0], hashdb.GetReq("k")); err != nil {
			fail("group 0 secondary refused its own group's token: %v", err)
			return
		}
		_, _, err = sec.QueryLevel(readpath.Session, toks[1], hashdb.GetReq("k"))
		if err == nil || !strings.Contains(err.Error(), "group 1 presented to group 0") {
			fail("group 0 secondary served a group-1 token: err = %v", err)
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
}
