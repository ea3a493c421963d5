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

// TestCrashRecoveryTorture repeatedly crashes and restarts replicas —
// primaries and secondaries alike — under continuous counter load with
// periodic checkpoints, then verifies that (a) the cluster converges and
// (b) the counters reflect exactly the acknowledged increments (no loss,
// no duplication: the §2.2 correctness definition end-to-end).
func TestCrashRecoveryTorture(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		opts := cluster.Options{
			Replicas: 3,
			Template: core.Config{
				Workers:         4,
				Timers:          1,
				HeartbeatEvery:  20 * time.Millisecond,
				ElectionTimeout: 120 * time.Millisecond,
				CheckpointEvery: 300 * time.Millisecond,
				Seed:            23,
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
		acked := make([]int, clients) // successful increments per client
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

		// The torture schedule: 6 rounds of kill-a-replica / run / restart.
		for round := 0; round < 6; round++ {
			e.Sleep(400 * time.Millisecond)
			victim := round % 3
			if round%2 == 0 {
				// Kill whoever is primary on even rounds.
				if p := c.Primary(); p >= 0 {
					victim = p
				}
			}
			c.Crash(victim)
			e.Sleep(600 * time.Millisecond)
			if err := c.Restart(victim); err != nil {
				t.Fatalf("round %d restart: %v", round, err)
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
		// At-most-once + no-loss: each counter equals its client's
		// acknowledged increments. (A retried request that was actually
		// executed before the crash is answered from the replicated dedup
		// table, so acked == executed exactly.)
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
			t.Fatal("no increments survived the torture — vacuous run")
		}
		t.Logf("torture survived: %d acknowledged increments across %d crash/restart rounds", total, 6)
		c.Stop()
	})
}
