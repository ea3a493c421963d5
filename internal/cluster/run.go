package cluster

import (
	"fmt"
	"time"

	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/shard"
	"rex/internal/sim"
)

// Run is one simulated cluster run, the shape every rexbench point and
// every rexchaos scenario shares: a fresh simulator, one replica group
// (Start) or a sharded deployment (StartMulti) up and led, a client
// fleet (Fleet) that runs until the run stops it, and an End that heals
// the deployment and checks its structure. Bench adds measurement
// windows on top, chaos a nemesis, a recorded history and its verdict.
//
// Everything runs on simulator tasks, which run one at a time and hand
// control over through channels, so a Run's fields need no lock. The
// simulator schedules tasks in spawn order, so a caller that keeps its
// spawn order keeps its run bit for bit.
type Run struct {
	Env *sim.Env
	C   *Cluster      // the group Start built
	MC  *MultiCluster // the deployment StartMulti built
	// Until, when set, ends the fleet at that virtual time; Stop ends it
	// at once.
	Until   time.Duration
	stopped bool
	fleet   *env.Group
}

// Simulate runs body as the root task of a fresh simulator whose
// machines have the given core count. When body returns, the simulator
// reaps every task still running, the replicas' included.
func Simulate(cores int, body func(r *Run)) {
	e := sim.New(cores)
	e.Run(func() { body(&Run{Env: e, fleet: env.NewGroup(e)}) })
}

// SimConfig is the replica configuration simulated runs start from:
// 20 ms heartbeats and status reports, and 100 ms elections.
func SimConfig(workers, timers int, seed int64) core.Config {
	return core.Config{
		Workers:         workers,
		Timers:          timers,
		HeartbeatEvery:  20 * time.Millisecond,
		ElectionTimeout: 100 * time.Millisecond,
		StatusEvery:     20 * time.Millisecond,
		Seed:            seed,
	}
}

// Start builds one replica group of factory, starts it and returns its
// primary once elected.
func (r *Run) Start(factory core.Factory, opts Options) (int, error) {
	r.C = New(r.Env, factory, opts)
	if err := r.C.Start(); err != nil {
		return -1, err
	}
	return r.C.WaitPrimary(5 * time.Second)
}

// StartMulti builds a sharded deployment of factory over m, starts it and
// waits until every group has a primary, under one shared deadline.
func (r *Run) StartMulti(factory core.Factory, m *shard.ShardMap, opts Options) error {
	mc, err := NewMulti(r.Env, factory, m, opts)
	if err != nil {
		return err
	}
	r.MC = mc
	for g, c := range mc.Groups {
		if err := c.Start(); err != nil {
			return fmt.Errorf("cluster: start group %d: %w", g, err)
		}
	}
	deadline := r.Env.Now() + 5*time.Second
	for g, c := range mc.Groups {
		for c.Primary() < 0 {
			if r.Env.Now() >= deadline {
				return fmt.Errorf("cluster: group %d has no primary in time", g)
			}
			r.Env.Sleep(2 * time.Millisecond)
		}
	}
	return nil
}

// Clusters lists the run's replica groups.
func (r *Run) Clusters() []*Cluster {
	if r.MC != nil {
		return r.MC.Groups
	}
	if r.C != nil {
		return []*Cluster{r.C}
	}
	return nil
}

// Sum adds f over every live replica of every group.
func (r *Run) Sum(f func(*core.Replica) uint64) uint64 {
	var n uint64
	for _, c := range r.Clusters() {
		for _, rp := range c.live() {
			if rp != nil {
				n += f(rp)
			}
		}
	}
	return n
}

// Counter reads one replica metrics counter, for Sum.
func Counter(name string) func(*core.Replica) uint64 {
	return func(rp *core.Replica) uint64 { return rp.Metrics().Counter(name) }
}

// A Step issues a client's seq-th operation and returns the pause before
// its next one; an error retires the client.
type Step func(seq int) (time.Duration, error)

// Fleet starts n clients, client i running the step newStep(i) builds
// with seq = 0, 1, ... until the run stops, which it checks before every
// step but the first. rate > 0 paces the fleet open loop at rate ops/s in
// total: arrivals are held to a schedule rather than to completions, each
// client's phase staggered so arrivals spread evenly, and a client whose
// last op ran long fires at once to catch up.
func (r *Run) Fleet(n int, rate float64, newStep func(i int) Step) {
	begin := r.Env.Now()
	for i := 0; i < n; i++ {
		i := i
		r.fleet.Add(1)
		r.Env.Go(fmt.Sprintf("client-%d", i), func() {
			defer r.fleet.Done()
			step := newStep(i)
			var interval time.Duration
			next := begin
			if rate > 0 {
				interval = time.Duration(float64(n) / rate * float64(time.Second))
				next += time.Duration(float64(i) / rate * float64(time.Second))
			}
			for seq := 0; ; seq++ {
				if rate > 0 {
					if now := r.Env.Now(); now < next {
						r.Env.Sleep(next - now)
					}
					next += interval
				}
				if seq > 0 && !r.Running() {
					return
				}
				pause, err := step(seq)
				if err != nil {
					return
				}
				if pause > 0 {
					r.Env.Sleep(pause)
				}
			}
		})
	}
}

// Running reports whether the fleet should go on.
func (r *Run) Running() bool {
	return !r.stopped && (r.Until == 0 || r.Env.Now() < r.Until)
}

// Stop ends the fleet: each client returns before its next step.
func (r *Run) Stop() { r.stopped = true }

// Wait blocks until every client of the fleet has returned.
func (r *Run) Wait() { r.fleet.Wait() }

// End is how every run finishes. It stops the fleet and waits for it,
// heals the network, disarms injected disk faults and restarts every
// member that is down, runs probe (if any) against the healed
// deployment, and then checks each group (Cluster.Check); violations
// name their group in a sharded run. settled is false when the
// deployment could not be healed or a group never settled.
func (r *Run) End(probe func()) (violations []string, settled bool) {
	r.Stop()
	r.Wait()
	if r.MC != nil {
		r.MC.Net.Heal()
	} else if r.C != nil {
		r.C.Net.Heal()
	}
	for _, c := range r.Clusters() {
		for _, d := range c.Disks {
			d.FailWrites("", 0)
		}
		if err := c.RestartDown(); err != nil {
			return []string{fmt.Sprintf("recovery: %v", err)}, false
		}
	}
	if probe != nil {
		probe()
	}
	settled = true
	for g, c := range r.Clusters() {
		v, ok := c.Check()
		for _, s := range v {
			if r.MC != nil {
				s = fmt.Sprintf("group %d: %s", g, s)
			}
			violations = append(violations, s)
		}
		settled = settled && ok
	}
	return violations, settled
}
