package core_test

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/sim"
)

// TestPromoteDemoteChurnResync drives rapid promote/demote cycles with
// periodic checkpoints disabled — the configuration that used to livelock
// and then crash two replicas with "panic: trace: base cut ... beyond
// available events" in Replayer.Extend. Leadership churn makes every new
// primary issue a rebasing delta while demoted primaries rebuild over the
// growing log; a mid-run secondary crash/restart forces recovery across
// checkpoint-floor compaction. The run must end with every replica live
// (resyncs instead of panics) and counters exactly matching acknowledged
// increments.
func TestPromoteDemoteChurnResync(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		opts := cluster.Options{
			Replicas: 3,
			Template: core.Config{
				Workers:                      4,
				Timers:                       1,
				HeartbeatEvery:               20 * time.Millisecond,
				ElectionTimeout:              120 * time.Millisecond,
				CheckpointEvery:              0,    // periodic checkpoints off: the old livelock setup
				MaxLogBytesWithoutCheckpoint: 1536, // about 24 deltas; only the log-growth floor triggers checkpoints
				Seed:                         29,
			},
		}
		c := cluster.New(e, newTKV, opts)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitPrimary(5 * time.Second); err != nil {
			t.Fatal(err)
		}

		const clients = 4
		acked := make([]int, clients)
		stop := false
		mu := e.NewMutex()
		g := env.NewGroup(e)
		for cid := 0; cid < clients; cid++ {
			cid := cid
			g.Add(1)
			e.Go(fmt.Sprintf("client-%d", cid), func() {
				defer g.Done()
				cl := c.NewClient(uint64(cid + 1))
				for {
					mu.Lock()
					s := stop
					mu.Unlock()
					if s {
						return
					}
					if _, err := cl.DoTimeout([]byte(fmt.Sprintf("add c%d 1", cid)), 30*time.Second); err == nil {
						mu.Lock()
						acked[cid]++
						mu.Unlock()
					}
				}
			})
		}

		// Promote/demote churn: repeatedly cut the current primary off just
		// long enough for a new leader to win and issue its rebasing delta,
		// then heal so the deposed primary demotes and rebuilds mid-stream.
		for round := 0; round < 8; round++ {
			e.Sleep(250 * time.Millisecond)
			p := c.Primary()
			if p < 0 {
				continue
			}
			c.Net.Isolate(p, true)
			e.Sleep(200 * time.Millisecond)
			c.Net.Isolate(p, false)
			if round == 3 {
				// Mid-churn, bounce a secondary so its recovery crosses
				// whatever the checkpoint floor compacted in the meantime.
				victim := (c.Primary() + 1) % 3
				if victim == p {
					victim = (victim + 1) % 3
				}
				c.Crash(victim)
				e.Sleep(700 * time.Millisecond)
				if err := c.Restart(victim); err != nil {
					t.Fatalf("round %d restart: %v", round, err)
				}
			}
		}
		e.Sleep(time.Second)
		mu.Lock()
		stop = true
		mu.Unlock()
		g.Wait()

		if _, err := c.WaitConverged(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			r := c.Replica(i)
			if r == nil {
				t.Fatalf("replica %d not running after churn", i)
			}
			if err := r.FaultError(); err != nil {
				t.Fatalf("replica %d faulted: %v", i, err)
			}
		}
		cl := c.NewClient(999)
		total := 0
		for cid := 0; cid < clients; cid++ {
			resp, err := cl.Do([]byte(fmt.Sprintf("get c%d", cid)))
			if err != nil {
				t.Fatalf("final get: %v", err)
			}
			got := 0
			if len(resp) > 0 {
				got, _ = strconv.Atoi(string(resp))
			}
			mu.Lock()
			want := acked[cid]
			mu.Unlock()
			if got != want {
				t.Errorf("client %d: counter=%d acknowledged=%d", cid, got, want)
			}
			total += got
		}
		if total == 0 {
			t.Fatal("no increments survived the churn — vacuous run")
		}
		var resyncs, floors uint64
		for i := 0; i < 3; i++ {
			m := c.Replica(i).Metrics()
			resyncs += m.Counter("rex_resync_total")
			floors += m.Counter("rex_checkpoint_floor_total")
		}
		if floors == 0 {
			t.Error("checkpoint floor never fired with CheckpointEvery=0")
		}
		t.Logf("churn survived: %d increments, %d resyncs, %d floor checkpoints", total, resyncs, floors)
		c.Stop()
	})
}
