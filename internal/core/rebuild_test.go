package core_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/sim"
)

// TestFaultDuringRebuildStaysFaulted faults a deposed primary while its
// rollback rebuild runs, between decoding the chosen log and publishing
// the new incarnation. The fault must stick: Role reads Faulted (rebuild
// used to reset the role to Secondary), and the rebuild publishes no
// incarnation, so no new worker starts on the faulted replica.
func TestFaultDuringRebuildStaysFaulted(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		c := cluster.New(e, newTKV, defaultOpts())
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		for i := 0; i < 10; i++ {
			if _, err := cl.Do([]byte(fmt.Sprintf("put k%d v%d", i, i))); err != nil {
				t.Fatal(err)
			}
		}
		victim := c.Replica(p)
		fired, before := false, 0
		defer core.SetRebuildHook(func(r *core.Replica) {
			if r != victim || fired {
				return
			}
			fired, before = true, r.Incarnation()
			r.Fault(errors.New("injected fault during rebuild"))
		})()

		// Cut the primary off until another replica wins, then heal: the
		// deposed primary demotes and rebuilds.
		c.Net.Isolate(p, true)
		e.Sleep(400 * time.Millisecond)
		c.Net.Isolate(p, false)
		for deadline := e.Now() + 5*time.Second; !fired && e.Now() < deadline; {
			e.Sleep(10 * time.Millisecond)
		}
		if !fired {
			t.Fatal("the deposed primary never rebuilt")
		}
		e.Sleep(500 * time.Millisecond)
		if got := victim.Role(); got != core.RoleFaulted {
			t.Errorf("role after a fault during rebuild = %v, want faulted", got)
		}
		if victim.FaultError() == nil {
			t.Error("fault error cleared by the rebuild")
		}
		if got := victim.Incarnation(); got != before {
			t.Errorf("rebuild published incarnation %d after the fault (was %d): new workers started", got, before)
		}
		c.Stop()
	})
}
