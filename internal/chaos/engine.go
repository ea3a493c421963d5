// Package chaos is the fault-injection engine: seed-deterministic
// nemesis schedules (crashes, primary kills, partitions, message loss
// and delay bursts, disk write errors under the WAL) executed against an
// in-process cluster under the simulator, plus the scenario runner that
// drives a recorded client workload through the faults and hands the
// evidence — concurrent histories, chosen logs, quiesced states — to the
// check package for verdicts.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"rex/internal/check"
	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/obs"
	"rex/internal/shard"
)

// Scenario is one declarative chaos run: a named preset and its knobs.
// NewScenario fills in the preset's defaults; Run executes it.
type Scenario struct {
	Name     string        // preset name (see Presets)
	Seed     int64         // everything the run does derives from it
	App      string        // application under test
	Duration time.Duration // virtual length of the client load phase
	Clients  int           // client load tasks
	Groups   int           // > 0: a sharded cluster of Groups groups on Groups nodes; 0: one three-replica cluster
}

// Count is one preset-specific number of a Result.
type Count struct {
	Name string
	N    int
}

// Result is one scenario's verdict.
type Result struct {
	Seed        int64
	App         string
	OK          bool
	Violations  []string
	Faults      int // nemesis actions applied
	Ops         int // operations recorded (discarded ones included)
	Timeouts    int // operations whose outcome is unknown
	Checked     int // operations the linearizability checker verified
	Parts       int // independent partitions of the checked history
	CheckerWall time.Duration
	Counts      []Count // preset-specific numbers, in print order
}

// Count returns the named preset-specific number, 0 if absent.
func (res Result) Count(name string) int {
	for _, c := range res.Counts {
		if c.Name == name {
			return c.N
		}
	}
	return 0
}

// execution is one run of a Scenario on the run harness, handed to the
// preset hooks: the live cluster (C when Groups == 0, MC when Groups >
// 0), the shared history, and the verdict being built. Hooks run on
// simulator tasks, which the simulator runs one at a time and hands
// control between over channels, so they share plain variables without
// locks.
type execution struct {
	Scenario
	*cluster.Run
	hist  *check.History // every recorded client operation
	begin time.Duration  // start of the load phase

	spec     appSpec
	reg      *obs.Registry
	logf     func(string, ...any)
	res      *Result
	sessions []check.SessionEvent

	// The preset's hooks. Its build installs them on each execution
	// afresh, so state kept in their closures starts from zero every run.
	options func(*cluster.Options) // deltas to the harness's cluster options
	// load builds client ci's step. The runner calls the step with seq =
	// 0, 1, ... while the load phase lasts (at least once) and sleeps the
	// pause it returns.
	load func(ci int, rng *rand.Rand) func(seq int) time.Duration
	// nemesis injects the faults in its own task, started just before
	// the clients.
	nemesis  func()
	endsLoad bool   // the load lasts until the nemesis calls Stop, not Duration
	probe    func() // runs once the faults are healed, before the state checks
	// invariants adds the preset's own checks once the replicas agree.
	invariants func()
	// replay crashes and restarts a secondary after the checks: rebuilt
	// from its own log and snapshot, it must land in the same state.
	replay bool
}

// Run completes the scenario with NewScenario, executes it under a
// fresh simulator, and checks the correctness contract: linearizability
// of the recorded history, state agreement and the prefix property after
// quiescence, the preset's own invariants, and optionally replay
// determinism. Metrics land in reg (nil for a private registry); logf,
// when set, streams nemesis actions.
func (sc Scenario) Run(reg *obs.Registry, logf func(string, ...any)) Result {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	sc, err := NewScenario(sc)
	res := Result{Seed: sc.Seed, App: sc.App}
	r := &execution{Scenario: sc, reg: reg, logf: logf, res: &res}
	if err != nil {
		r.failf("%v", err)
	} else {
		r.spec, _ = specFor(sc.App) // NewScenario checked the app
		presets[sc.Name].build(r)
		cluster.Simulate(4, func(run *cluster.Run) {
			r.Run = run
			r.run()
		})
	}
	r.verdict()
	return res
}

func (r *execution) run() {
	opts := cluster.Options{Template: cluster.SimConfig(2, r.spec.timers, r.Seed)}
	opts.Template.CheckpointEvery = 200 * time.Millisecond
	opts.Template.Logf = r.logf
	if r.options != nil {
		r.options(&opts)
	}
	if err := r.start(opts); err != nil {
		r.failf("%v", err)
		return
	}

	r.hist = check.NewHistory(r.Env.Now)
	r.begin = r.Env.Now()
	if !r.endsLoad {
		r.Until = r.begin + r.Duration
	}
	nemesis := env.GoEach(r.Env, r.Name+"-nemesis", 1, func(int) {
		if r.nemesis != nil {
			r.nemesis()
		}
	})
	r.Fleet(r.Clients, 0, func(ci int) cluster.Step {
		step := r.load(ci, rand.New(rand.NewSource(r.Seed+int64(ci)*7919)))
		return func(seq int) (time.Duration, error) { return step(seq), nil }
	})
	r.Wait()
	nemesis.Wait()

	// Fault phase over: heal, restart, probe, quiesce, and check structure.
	violations, settled := r.End(r.probe)
	r.res.Violations = append(r.res.Violations, violations...)
	if !settled {
		return
	}
	if r.invariants != nil {
		r.invariants()
	}
	if r.replay && len(r.res.Violations) == 0 {
		r.replayDeterminism()
	}
}

// start starts the cluster, or with Groups a sharded deployment of one
// group per node, and waits for every primary.
func (r *execution) start(opts cluster.Options) error {
	if r.Groups == 0 {
		_, err := r.Start(r.spec.factory, opts)
		return err
	}
	m, err := shard.NewShardMap(1, r.Groups, r.Groups, 3)
	if err != nil {
		return err
	}
	return r.StartMulti(r.spec.factory, m, opts)
}

// client returns client ci of the single cluster, recording into Hist.
func (r *execution) client(ci int) *cluster.Client {
	cl := r.C.NewClient(uint64(100 + ci))
	cl.Recorder = r.hist
	return cl
}

// note counts and logs one applied nemesis action of the given kind.
func (r *execution) note(kind, format string, args ...any) {
	r.res.Faults++
	r.reg.CounterOf("chaos_fault_" + kind).Inc()
	r.log("chaos: "+format, args...)
}

func (r *execution) log(format string, args ...any) {
	if r.logf != nil {
		r.logf(format, args...)
	}
}

// failf records a violation.
func (r *execution) failf(format string, args ...any) {
	r.res.Violations = append(r.res.Violations, fmt.Sprintf(format, args...))
}

// require records msg as a violation unless ok.
func (r *execution) require(ok bool, msg string) {
	if !ok {
		r.failf("%s", msg)
	}
}

// timeout counts one client operation whose outcome is unknown.
func (r *execution) timeout() { r.res.Timeouts++ }

// session records one client session event for the read-your-writes and
// monotonic-reads check.
func (r *execution) session(ev check.SessionEvent) { r.sessions = append(r.sessions, ev) }

// count sets a preset-specific number of the result.
func (r *execution) count(name string, n int) {
	r.res.Counts = append(r.res.Counts, Count{name, n})
}

// replayDeterminism crashes and restarts one secondary per group;
// rebuilt from its WAL and snapshot, it must land in the same state as
// the others when the run's End checks it again.
func (r *execution) replayDeterminism() {
	for _, c := range r.Clusters() {
		p := c.Primary()
		for i := 0; i < c.Size(); i++ {
			if rp := c.Replica(i); i != p && rp != nil && rp.Role() != core.RoleRemoved {
				c.Crash(i)
				if err := c.Restart(i); err != nil {
					r.failf("replay restart: %v", err)
					return
				}
				break
			}
		}
	}
	violations, _ := r.End(nil)
	for _, v := range violations {
		r.failf("replay determinism: %s", v)
	}
}

// verdict checks the recorded history and session events and settles
// the result and its metrics.
func (r *execution) verdict() {
	res := r.res
	if r.hist != nil {
		res.Ops = r.hist.Len()
		wall := time.Now()
		cr := check.CheckLinearizable(r.spec.model, r.hist.Ops(), 0)
		res.CheckerWall = time.Since(wall)
		res.Checked, res.Parts = cr.Ops, cr.Partitions
		r.reg.CounterOf("chaos_ops_checked").Add(uint64(cr.Ops))
		r.reg.CounterOf("chaos_histories_verified").Inc()
		r.reg.HistogramOf("chaos_checker_wall").Observe(res.CheckerWall)
		r.require(cr.Ok, fmt.Sprintf("history of %d ops is not linearizable (%s %s)", cr.Ops, r.Name, r.App))
		r.require(!cr.Undecided, "linearizability undecided: step budget exhausted")
	}
	res.Violations = append(res.Violations, check.CheckSessionReads(r.sessions)...)
	res.OK = len(res.Violations) == 0
	r.reg.CounterOf("chaos_scenarios_run").Inc()
	if !res.OK {
		r.reg.CounterOf("chaos_scenarios_failed").Inc()
	}
}

// runSchedule executes every step at its offset from now. It returns
// after the last step fires.
func (r *execution) runSchedule(s Schedule) {
	start := r.Env.Now()
	for _, st := range s.Steps {
		if wake := start + st.At; wake > r.Env.Now() {
			r.Env.Sleep(wake - r.Env.Now())
		}
		r.apply(st)
	}
}

// isDown reports whether replica i is crashed or crash-stopped.
func (r *execution) isDown(i int) bool {
	rp := r.C.Replica(i)
	return rp == nil || rp.Role() == core.RoleFaulted
}

func (r *execution) downCount() int {
	n := 0
	for i := 0; i < r.C.Size(); i++ {
		if r.isDown(i) {
			n++
		}
	}
	return n
}

// apply executes one schedule step now. Crashes that would reduce the
// cluster below a majority of live replicas are skipped (counted under
// chaos_fault_skipped), so the generator never has to reason about
// global liveness.
func (r *execution) apply(st Step) {
	c := r.C
	n := c.Size()
	i, j := st.I%n, st.J%n
	skip := func() { r.reg.CounterOf("chaos_fault_skipped").Inc() }
	note := func(format string, args ...any) { r.note(st.Kind.String(), format, args...) }
	switch st.Kind {
	case KindCrashReplica, KindCrashPrimary:
		if st.Kind == KindCrashPrimary {
			if i = c.Primary(); i < 0 {
				skip()
				return
			}
		}
		if r.isDown(i) || r.downCount() >= (n-1)/2 {
			skip()
			return
		}
		note("crash replica %d (%s)", i, st.Kind)
		c.Crash(i)
	case KindRestartAll:
		note("restart down replicas")
		if err := c.RestartDown(); err != nil {
			r.log("chaos: restart failed: %v", err)
		}
	case KindPartition:
		note("partition {%d} | rest", i)
		partition(c, i)
	case KindPartitionAsym:
		if i == j {
			skip()
			return
		}
		note("cut link %d->%d", i, j)
		c.Net.SetPartition(i, j, true)
	case KindHeal:
		note("heal network")
		c.Net.Heal()
	case KindLossBurst:
		note("loss burst p=%.2f", st.P)
		c.Net.SetLoss(st.P)
	case KindDelayBurst:
		if i == j {
			skip()
			return
		}
		note("delay burst %d<->%d %v..%v", i, j, st.Min, st.Max)
		c.Net.SetDelay(i, j, st.Min, st.Max)
		c.Net.SetDelay(j, i, st.Min, st.Max)
	case KindWALFault:
		note("arm %d WAL failures on replica %d", st.K, i)
		c.Disks[i].FailWrites("wal", st.K)
	default:
		skip()
	}
}

// partition symmetrically cuts replica i off from the rest of c.
func partition(c *cluster.Cluster, i int) {
	for j := 0; j < c.Size(); j++ {
		if j != i {
			c.Net.SetPartition(i, j, true)
			c.Net.SetPartition(j, i, true)
		}
	}
}
