package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"rex/internal/apps/hashdb"
	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/readpath"
	"rex/internal/sim"
	"rex/internal/wire"
)

// TestLinearizableReadAfterPrimaryCrash crashes the primary a client
// last wrote through and, once a new primary is elected, issues a
// linearizable read through the same client. The read must move on from
// the dead primary's empty slot and be served by the new primary.
func TestLinearizableReadAfterPrimaryCrash(t *testing.T) {
	e := sim.New(2)
	var failure error
	e.Run(func() {
		failure = func() error {
			c := cluster.New(e, hashdb.New(hashdb.DefaultOptions()), cluster.Options{
				Template: core.Config{
					Workers:     2,
					Timers:      hashdb.Timers(),
					ReadWorkers: 1,
					Seed:        3,
				},
			})
			if err := c.Start(); err != nil {
				return err
			}
			defer c.Stop()
			old, err := c.WaitPrimary(10 * time.Second)
			if err != nil {
				return err
			}
			cl := c.NewClient(1)
			if _, err := cl.Do(hashdb.SetReq("k", []byte("v"))); err != nil {
				return fmt.Errorf("set: %w", err)
			}
			c.Crash(old)
			for c.Primary() < 0 {
				e.Sleep(10 * time.Millisecond)
			}
			resp, err := cl.QueryLevelTimeout(readpath.Linearizable, hashdb.GetReq("k"), 10*time.Second)
			if err != nil {
				return fmt.Errorf("linearizable read after crashing primary %d: %w", old, err)
			}
			d := wire.NewDecoder(resp)
			if !d.Bool() || string(d.BytesVal()) != "v" {
				return fmt.Errorf("read %q, want v", resp)
			}
			return nil
		}()
	})
	if failure != nil {
		t.Fatal(failure)
	}
}
