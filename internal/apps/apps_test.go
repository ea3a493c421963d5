package apps

import (
	"testing"
	"time"

	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/sim"
)

// TestAllAppsReplicate drives each of the six applications through a full
// 3-replica cluster in the simulator: prefill, mixed workload from several
// clients, then convergence of all replicas to the same state — the
// end-to-end determinism property (§2.2) for every app in Table 1.
func TestAllAppsReplicate(t *testing.T) {
	for _, app := range All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			e := sim.New(8)
			e.Run(func() {
				c := cluster.New(e, app.Factory, cluster.Options{
					Replicas: 3,
					Template: core.Config{
						Workers:         4,
						Timers:          app.Timers,
						ReadWorkers:     1,
						HeartbeatEvery:  20 * time.Millisecond,
						ElectionTimeout: 100 * time.Millisecond,
						Seed:            7,
					},
				})
				if err := c.Start(); err != nil {
					t.Fatalf("start: %v", err)
				}
				if _, err := c.WaitPrimary(5 * time.Second); err != nil {
					t.Fatal(err)
				}
				// Prefill from one client (a truncated setup to keep the
				// simulation fast).
				setupCl := c.NewClient(1)
				setup := app.NewWorkload(1).Setup()
				if len(setup) > 200 {
					setup = setup[:200]
				}
				for _, req := range setup {
					if _, err := setupCl.Do(req); err != nil {
						t.Fatalf("setup: %v", err)
					}
				}
				// Mixed load from 4 clients.
				g := env.NewGroup(e)
				for cid := 0; cid < 4; cid++ {
					cid := cid
					g.Add(1)
					e.Go("client", func() {
						defer g.Done()
						cl := c.NewClient(uint64(10 + cid))
						wl := app.NewWorkload(int64(100 + cid))
						for i := 0; i < 30; i++ {
							if _, err := cl.Do(wl.Next()); err != nil {
								t.Errorf("%s request: %v", app.Name, err)
								return
							}
						}
					})
				}
				g.Wait()
				// A read-only query must work on the primary.
				p := c.Primary()
				if p >= 0 {
					wl := app.NewWorkload(999)
					if _, err := c.Replicas[p].Query(wl.Query()); err != nil {
						t.Errorf("query: %v", err)
					}
				}
				state, err := c.WaitConverged(15 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				if len(state) == 0 {
					t.Error("converged on empty state")
				}
				c.Stop()
			})
		})
	}
}

// TestAppsSurviveFailover runs a shorter failover pass for each app: the
// primary is killed mid-load and the cluster must converge afterwards.
func TestAppsSurviveFailover(t *testing.T) {
	for _, app := range All() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			e := sim.New(8)
			e.Run(func() {
				c := cluster.New(e, app.Factory, cluster.Options{
					Replicas: 3,
					Template: core.Config{
						Workers:         4,
						Timers:          app.Timers,
						HeartbeatEvery:  20 * time.Millisecond,
						ElectionTimeout: 100 * time.Millisecond,
						Seed:            13,
					},
				})
				if err := c.Start(); err != nil {
					t.Fatalf("start: %v", err)
				}
				p, err := c.WaitPrimary(5 * time.Second)
				if err != nil {
					t.Fatal(err)
				}
				stop := false
				g := env.NewGroup(e)
				for cid := 0; cid < 3; cid++ {
					cid := cid
					g.Add(1)
					e.Go("client", func() {
						defer g.Done()
						cl := c.NewClient(uint64(20 + cid))
						wl := app.NewWorkload(int64(200 + cid))
						for !stop {
							if _, err := cl.Do(wl.Next()); err != nil {
								return
							}
						}
					})
				}
				e.Sleep(200 * time.Millisecond)
				c.Crash(p)
				e.Sleep(1500 * time.Millisecond)
				stop = true
				g.Wait()
				if err := c.Restart(p); err != nil {
					t.Fatal(err)
				}
				if _, err := c.WaitConverged(20 * time.Second); err != nil {
					t.Fatal(err)
				}
				c.Stop()
			})
		})
	}
}
