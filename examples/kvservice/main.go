// kvservice: a replicated LevelDB-style LSM key/value store with
// checkpointing and a full failover, built from the lsmkv application in
// internal/apps.
//
// The demo loads data through the replicated API, takes a checkpoint
// (snapshotted by a secondary while replay is paused at the marked cut,
// with the trace prefix garbage-collected afterwards), kills the primary
// mid-load, and verifies that no acknowledged write is lost.
//
//	go run ./examples/kvservice
package main

import (
	"fmt"
	"time"

	"rex"
	"rex/internal/apps"
	"rex/internal/apps/lsmkv"
	"rex/internal/wire"
)

func main() {
	app := apps.LSMKV()
	e := rex.NewSimEnv(8)
	e.Run(func() {
		c := rex.NewCluster(e, app.Factory, rex.ClusterOptions{
			Replicas: 3,
			Template: rex.Config{
				Workers:         4,
				Timers:          app.Timers, // the LSM compaction background task
				CheckpointEvery: 400 * time.Millisecond,
			},
		})
		if err := c.Start(); err != nil {
			panic(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			panic(err)
		}
		fmt.Printf("primary is replica %d\n", p)

		cl := c.NewClient(1)
		put := func(k, v string) {
			if _, err := cl.Do(lsmkv.PutReq(k, []byte(v))); err != nil {
				panic(err)
			}
		}
		get := func(k string) (string, bool) {
			resp, err := cl.Do(lsmkv.GetReq(k))
			if err != nil {
				panic(err)
			}
			d := wire.NewDecoder(resp)
			ok := d.Bool()
			return string(d.BytesVal()), ok
		}

		for i := 0; i < 300; i++ {
			put(fmt.Sprintf("user:%04d", i), fmt.Sprintf("profile-%d", i))
		}
		fmt.Println("loaded 300 keys through the replicated API")

		// Let a periodic checkpoint land (taken by a designated secondary;
		// the Paxos log prefix is then garbage-collected).
		e.Sleep(600 * time.Millisecond)
		for i, s := range c.Snaps {
			if id, _, ok, _ := s.Load(); ok {
				fmt.Printf("replica %d holds checkpoint %d\n", i, id)
			}
		}

		// Kill the primary; the client transparently fails over.
		fmt.Printf("killing primary %d...\n", p)
		c.Crash(p)
		put("after:failover", "still-works")
		np := c.Primary()
		fmt.Printf("new primary is replica %d\n", np)

		if v, ok := get("user:0042"); !ok || v != "profile-42" {
			panic(fmt.Sprintf("lost acknowledged write: %q %v", v, ok))
		}
		if v, _ := get("after:failover"); v != "still-works" {
			panic("post-failover write lost")
		}
		fmt.Println("all acknowledged writes survived the failover ✓")

		// Bring the old primary back: it rolls back its speculative state
		// and catches up from the checkpoint plus the committed trace.
		if err := c.Restart(p); err != nil {
			panic(err)
		}
		if _, err := c.WaitConverged(20 * time.Second); err != nil {
			panic(err)
		}
		fmt.Println("old primary rejoined and all replicas converged ✓")
		c.Stop()
	})
}
