package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"rex/internal/apps/hashdb"
	"rex/internal/check"
	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/readpath"
	"rex/internal/rebalance"
	"rex/internal/shard"
	"rex/internal/wire"
)

// preset is one named scenario: its defaults and the builder that
// installs its hooks on one execution.
type preset struct {
	app      string        // the only application it drives; "" derives one from the seed
	duration time.Duration // 0: the nemesis ends the load (endsLoad) and takes no duration
	clients  int
	groups   int
	build    func(*execution)
}

var presets = map[string]preset{
	"generic":   {"", 3 * time.Second, 4, 0, genericPreset},
	"reconfig":  {"", 3 * time.Second, 4, 0, reconfigPreset},
	"recovery":  {"", 3 * time.Second, 4, 0, recoveryPreset},
	"reads":     {"hashdb", 3 * time.Second, 4, 0, readsPreset},
	"conflicts": {"hashdb", 3 * time.Second, 4, 0, conflictsPreset},
	"overload":  {"hashdb", 1500 * time.Millisecond, 48, 0, overloadPreset},
	"shards":    {"hashdb", 3 * time.Second, 8, 4, shardsPreset},
	"rebalance": {"hashdb", 0, 6, 3, rebalancePreset},
}

// Presets lists the scenario names NewScenario accepts.
func Presets() []string {
	names := make([]string, 0, len(presets))
	for name := range presets {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewScenario completes sc from its named preset ("" is generic): zero
// Duration, Clients and Groups take the preset's defaults, and App ""
// or "all" takes the preset's application or, where the preset has
// none, one derived from the seed — so re-running a printed seed
// reproduces the identical scenario. Run applies it itself; calling it
// first validates the knobs and shows the resolved values.
func NewScenario(sc Scenario) (Scenario, error) {
	if sc.Name == "" {
		sc.Name = "generic"
	}
	p, ok := presets[sc.Name]
	if !ok {
		return sc, fmt.Errorf("chaos: unknown scenario %q (have %v)", sc.Name, Presets())
	}
	if sc.App == "" || sc.App == "all" {
		sc.App = p.app
		if sc.App == "" {
			names := Apps()
			sc.App = names[uint64(sc.Seed)%uint64(len(names))]
		}
	} else if p.app != "" && sc.App != p.app {
		return sc, fmt.Errorf("chaos: scenario %s drives %s only", sc.Name, p.app)
	}
	if _, err := specFor(sc.App); err != nil {
		return sc, err
	}
	if p.groups == 0 && sc.Groups != 0 {
		return sc, fmt.Errorf("chaos: scenario %s runs one cluster; only shards and rebalance take groups", sc.Name)
	}
	if p.duration == 0 && sc.Duration != 0 {
		return sc, fmt.Errorf("chaos: scenario %s runs until its nemesis is done; it takes no duration", sc.Name)
	}
	if sc.Duration <= 0 {
		sc.Duration = p.duration
	}
	if sc.Clients <= 0 {
		sc.Clients = p.clients
	}
	if sc.Groups <= 0 {
		sc.Groups = p.groups
	}
	return sc, nil
}

// ms draws a pause of min..max-1 milliseconds.
func ms(rng *rand.Rand, min, max int) time.Duration {
	return time.Duration(min+rng.Intn(max-min)) * time.Millisecond
}

// appLoad is the application's own chaos workload (apps.go) on one
// recorded client, closed loop with a short think time.
func (r *execution) appLoad(ci int, rng *rand.Rand) func(int) time.Duration {
	cl := r.client(ci)
	return func(seq int) time.Duration {
		if _, err := cl.DoTimeout(r.spec.gen(rng, cl.ID, seq), 3*time.Second); err != nil {
			r.timeout()
		}
		return ms(rng, 2, 10)
	}
}

// hashdbOp draws the KV mix over key: 45% get, 45% set to val, 10% delete.
func hashdbOp(rng *rand.Rand, key, val string) []byte {
	switch r := rng.Intn(100); {
	case r < 45:
		return hashdb.GetReq(key)
	case r < 90:
		return hashdb.SetReq(key, []byte(val))
	default:
		return hashdb.DelReq(key)
	}
}

// readVersion decodes a hashdb get of a key holding a decimal version;
// an absent key is version 0.
func readVersion(resp []byte) (uint64, error) {
	d := wire.NewDecoder(resp)
	found, val := d.Bool(), d.BytesVal()
	if d.Err() != nil {
		return 0, fmt.Errorf("corrupt read response %x", resp)
	}
	if !found {
		return 0, nil
	}
	return strconv.ParseUint(string(val), 10, 64)
}

// genericPreset runs a random fault schedule derived from the seed
// (crashes, primary kills, partitions, loss and delay bursts, WAL
// faults) under the application's own workload, then checks replay
// determinism across a secondary restart.
func genericPreset(r *execution) {
	sched := Generate(r.Seed, 3, r.Duration)
	r.load = r.appLoad
	r.nemesis = func() { r.runSchedule(sched) }
	r.replay = true
}

// reconfigWait bounds each membership transition inside the reconfig
// preset (virtual time; generous because transitions race partitions).
const reconfigWait = 30 * time.Second

// reconfigPreset changes the membership under load: a secondary is
// replaced (half the time crashed first, so the replacement heals a real
// failure), a fresh node is added and promoted, and a node is removed —
// interleaved with partitions that also hit the joiner mid-catch-up.
func reconfigPreset(r *execution) {
	r.load = r.appLoad
	r.nemesis = func() {
		c := r.c
		rng := rand.New(rand.NewSource(r.Seed ^ 0x7ec0f19))
		cut := func(i int) {
			r.note("partition", "partition {%d} | rest", i)
			partition(c, i)
		}
		heal := func() {
			c.Net.Heal()
			r.note("heal", "heal network")
		}
		// pickSecondary returns a random non-primary voter, -1 if none.
		pickSecondary := func() int {
			p := c.Primary()
			if p < 0 {
				return -1
			}
			rp := c.Replica(p)
			if rp == nil {
				return -1
			}
			var cands []int
			for _, v := range rp.Membership().Voters {
				if v != p {
					cands = append(cands, v)
				}
			}
			if len(cands) == 0 {
				return -1
			}
			return cands[rng.Intn(len(cands))]
		}

		// A plain partition first, so the membership machinery below
		// runs against a cluster that has already had to fail over.
		r.e.Sleep(ms(rng, 100, 300))
		cut(rng.Intn(3))
		r.e.Sleep(ms(rng, 40, 120))
		heal()

		// Replace a secondary; half the time crash it first so the
		// replacement repairs an actual dead node.
		r.e.Sleep(ms(rng, 50, 150))
		if old := pickSecondary(); old >= 0 {
			if rng.Intn(2) == 0 {
				r.note("crash_replica", "crash replica %d before replacing it", old)
				c.Crash(old)
				r.e.Sleep(ms(rng, 30, 80))
			}
			r.note("reconfig_replace", "replace replica %d", old)
			if nid, err := c.ReplaceNode(old); err != nil {
				r.failf("replace %d: %v", old, err)
			} else {
				if err := c.WaitVoter(nid, reconfigWait); err != nil {
					r.failf("replacement %d never promoted: %v", nid, err)
				}
				if err := c.WaitRemoved(old, reconfigWait); err != nil {
					r.failf("replaced %d never left: %v", old, err)
				}
			}
		}

		// Add a learner, partition a random member during its catch-up,
		// then wait for promotion after healing.
		r.e.Sleep(ms(rng, 50, 150))
		r.note("reconfig_add", "add a node")
		added, err := c.AddNode()
		if err != nil {
			r.failf("add: %v", err)
			return
		}
		r.e.Sleep(ms(rng, 10, 60))
		cut(rng.Intn(c.Size()))
		r.e.Sleep(ms(rng, 40, 120))
		heal()
		if err := c.WaitVoter(added, reconfigWait); err != nil {
			r.failf("joiner %d never promoted: %v", added, err)
		}
		// Shrink back to three voters.
		r.e.Sleep(ms(rng, 50, 150))
		if victim := pickSecondary(); victim >= 0 {
			r.note("reconfig_remove", "remove replica %d", victim)
			if err := c.RemoveNode(victim); err != nil {
				r.failf("remove %d: %v", victim, err)
			} else if err := c.WaitRemoved(victim, reconfigWait); err != nil {
				r.failf("removed %d never went quiet: %v", victim, err)
			}
		}
	}
}

// recoveryPreset is the bounded-recovery nemesis. Periodic checkpoints
// are off, so the log-growth floor is the only checkpoint driver, and
// the primary is repeatedly isolated just long enough for a new leader
// to win and issue a rebasing delta, then healed so the deposed primary
// demotes and rebuilds mid-stream. A secondary is also bounced after the
// floor has compacted the log, so it recovers via snapshot and follows
// committed deltas whose cuts may run beyond its rebuilt trace. This
// setup used to livelock and then kill replicas with "trace: base cut
// ... beyond available events"; now every replica must stay live and at
// least one rex_resync_total increment must show the resync path fired.
func recoveryPreset(r *execution) {
	r.options = func(o *cluster.Options) {
		o.Template.ElectionTimeout = 120 * time.Millisecond
		o.Template.CheckpointEvery = 0                    // periodic checkpoints off: the old livelock setup
		o.Template.MaxLogBytesWithoutCheckpoint = 3 << 10 // about 50 deltas; only the log-growth floor triggers checkpoints
	}
	r.load = r.appLoad
	r.nemesis = func() {
		c := r.c
		rng := rand.New(rand.NewSource(r.Seed ^ 0x5ec0fe5))
		crashRound := 2 + rng.Intn(3) // bounce a secondary once, mid-churn
		for round := 0; r.e.Now() < r.begin+r.Duration; round++ {
			r.e.Sleep(ms(rng, 180, 320))
			p := c.Primary()
			if p < 0 {
				continue
			}
			r.note("isolate_primary", "round %d: isolate primary %d", round, p)
			c.Net.Isolate(p, true)
			r.e.Sleep(ms(rng, 150, 260))
			c.Net.Isolate(p, false)
			r.note("heal", "round %d: heal primary %d", round, p)
			if round != crashRound {
				continue
			}
			victim := (c.Primary() + 1) % c.Size()
			if victim == p {
				victim = (victim + 1) % c.Size()
			}
			r.note("crash_replica", "round %d: crash secondary %d", round, victim)
			c.Crash(victim)
			r.e.Sleep(ms(rng, 500, 800))
			if err := c.Restart(victim); err != nil {
				r.failf("round %d restart %d: %v", round, victim, err)
				return
			}
			r.note("restart_replica", "round %d: restart secondary %d", round, victim)
		}
	}
	r.invariants = func() {
		resyncs := r.sum(counter("rex_resync_total"))
		r.require(resyncs > 0, "no rex_resync_total increment: the scenario never exercised the resync path")
		r.count("resyncs", resyncs)
	}
}

// isolatePrimaries repeatedly isolates the current primary (after a
// gapMin..gapMax ms pause) for 280..450 ms, forcing a failover, and
// counts the primary changes it observes into *failovers.
func isolatePrimaries(r *execution, xor int64, gapMin, gapMax int, failovers *int) {
	c := r.c
	rng := rand.New(rand.NewSource(r.Seed ^ xor))
	last := c.Primary()
	for r.e.Now() < r.begin+r.Duration {
		r.e.Sleep(ms(rng, gapMin, gapMax))
		p := c.Primary()
		if p < 0 {
			continue
		}
		if p != last {
			*failovers++
			last = p
		}
		r.note("isolate_primary", "isolate primary %d", p)
		c.Net.Isolate(p, true)
		r.e.Sleep(ms(rng, 280, 450))
		c.Net.Isolate(p, false)
		r.note("heal", "heal old primary %d", p)
	}
	if p := c.Primary(); p >= 0 && p != last {
		*failovers++
	}
}

// readsPreset stresses the consistent read path: a hashdb cluster with
// quorum read leases serves writes, linearizable reads and session reads
// while the nemesis isolates the primary mid-lease. Lease reads keep
// flowing (no rival can win an election before the grant expires), then
// the cluster must fail over. Each client writes increasing versions to
// a private key, so the run checks that no linearizable read is stale
// (they sit in the history next to the writes), that session reads
// served by secondaries are read-your-writes and monotonic, and that it
// saw a failover, a lease-served read and a follower-served read.
func readsPreset(r *execution) {
	var failovers int
	r.options = func(o *cluster.Options) {
		o.Template.ElectionTimeout = 120 * time.Millisecond
		o.Template.ReadWorkers = 2
		o.Template.ReadWaitTimeout = 300 * time.Millisecond
	}
	r.load = func(ci int, rng *rand.Rand) func(int) time.Duration {
		cl := r.client(ci)
		key := fmt.Sprintf("sess-%d", cl.ID)
		version := uint64(0)
		return func(seq int) time.Duration {
			version++
			if _, err := cl.DoTimeout(hashdb.SetReq(key, []byte(strconv.FormatUint(version, 10))), 3*time.Second); err != nil {
				// Outcome unknown: the write may commit late (or never),
				// so it must not raise the read floor.
				r.timeout()
			} else {
				r.session(check.SessionEvent{Client: cl.ID, Kind: check.SessionWrite, Version: version})
			}
			level, name := readpath.Session, "session"
			if seq%3 == 1 {
				level, name = readpath.Linearizable, "linearizable"
			}
			if resp, err := cl.QueryLevelTimeout(level, hashdb.GetReq(key), 3*time.Second); err != nil {
				r.timeout()
			} else if v, err := readVersion(resp); err != nil {
				r.failf("client %d: %v", cl.ID, err)
			} else {
				r.session(check.SessionEvent{Client: cl.ID, Kind: check.SessionRead, Version: v, Level: name})
			}
			if seq%5 == 4 {
				// Eventual reads ride along to exercise the weakest path;
				// they promise nothing worth checking here.
				if _, err := cl.QueryLevelTimeout(readpath.Eventual, hashdb.GetReq(key), 3*time.Second); err != nil {
					r.timeout()
				}
			}
			return ms(rng, 2, 10)
		}
	}
	r.nemesis = func() { isolatePrimaries(r, 0x6ead5, 200, 350, &failovers) }
	r.invariants = func() {
		lease := r.sum(counter("rex_lease_reads_total"))
		follower := r.sum(counter("rex_follower_reads_total"))
		r.require(failovers > 0, "no failover observed: the nemesis never deposed a primary")
		r.require(lease > 0, "no rex_lease_reads_total increment: no linearizable read was served off the lease")
		r.require(follower > 0, "no rex_follower_reads_total increment: no read was served by a secondary")
		r.count("failovers", failovers)
		r.count("session_ops", len(r.sessions))
		r.count("lease_reads", lease)
		r.count("follower_reads", follower)
	}
}

// conflictsPreset stresses conflict-class tracing with elision on.
// hashdb classifies single-key ops into per-slice conflict classes whose
// slice locks are class-owned, so their lock events are elided from the
// committed deltas. Clients mix disjoint per-client keys with contended
// shared keys while the nemesis isolates the primary, forcing promotions
// that must re-seed their dispatch accounting from carried-over
// classified requests. A sweeper issues whole-table scans — catch-all
// class requests dispatched under the admission barrier — outside the
// checked history (they touch every key); state agreement and replay
// determinism still cover them. The run must stay linearizable (elision
// must not let same-class requests reorder observably), replay the
// elided trace to the same state on a restarted secondary, and show a
// failover, elided lock ops and at least one sweep.
func conflictsPreset(r *execution) {
	var failovers, sweeps int
	r.options = func(o *cluster.Options) {
		o.Template.ElectionTimeout = 120 * time.Millisecond
		o.Template.Workers = 4 // spread conflict classes over several threads
	}
	r.load = func(ci int, rng *rand.Rand) func(int) time.Duration {
		cl := r.client(ci)
		return func(seq int) time.Duration {
			// 70% private keys (pairwise-disjoint classes, maximal
			// elision), 30% shared keys (one class contended by every
			// client: same-class ordering must survive elision).
			var key string
			if rng.Intn(100) < 70 {
				key = fmt.Sprintf("own-%d-%d", ci, rng.Intn(4))
			} else {
				key = fmt.Sprintf("shared-%d", rng.Intn(3))
			}
			if _, err := cl.DoTimeout(hashdbOp(rng, key, fmt.Sprintf("c%d-n%d", ci, seq)), 3*time.Second); err != nil {
				r.timeout()
			}
			return ms(rng, 2, 10)
		}
	}
	r.nemesis = func() {
		sweeper := env.GoEach(r.e, "conflicts-sweeper", 1, func(int) {
			cl := r.c.NewClient(99)
			rng := rand.New(rand.NewSource(r.Seed ^ 0x5eeb))
			for r.e.Now() < r.begin+r.Duration {
				r.e.Sleep(ms(rng, 60, 140))
				if _, err := cl.DoTimeout(hashdb.SweepReq(), 3*time.Second); err != nil {
					r.timeout()
				} else {
					sweeps++
				}
			}
		})
		isolatePrimaries(r, 0xc0f1, 250, 450, &failovers)
		sweeper.Wait()
	}
	r.invariants = func() {
		elided := r.sum(func(rp *core.Replica) uint64 { return rp.Stats().ElidedOps })
		r.require(failovers > 0, "no failover observed: the nemesis never deposed a primary")
		r.require(elided > 0, "no lock operations elided: conflict-class elision never engaged")
		r.require(sweeps > 0, "no sweep completed: the catch-all barrier path was never exercised")
		r.count("failovers", failovers)
		r.count("elided", elided)
		r.count("sweeps", sweeps)
	}
	r.replay = true
}

// overload preset tuning: a deliberately tiny primary (16 admitted, 24
// waiting) so the worker fleet — three times that capacity — saturates it
// hard enough to engage both the CoDel controller and the hard waiter cap.
const (
	overloadMaxOutstanding = 16
	overloadMaxWaiters     = 24
	overloadOpTimeout      = 250 * time.Millisecond
	// overloadRecorded caps how many storm workers feed the history: the
	// whole fleet's ops on one hot key would blow the WGL checker's
	// budget, and a sampled history already catches a lost or stale write.
	overloadRecorded = 6
	// overloadProbes clients write overloadProbeOps/overloadProbes keys
	// each after the storm; 80% of them must complete.
	overloadProbes   = 4
	overloadProbeOps = 40
)

// overloadPreset drives a hashdb cluster into saturation: an open-loop
// zipfian hot-key write storm with short per-op deadlines from a fleet
// several times the primary's admission capacity, with the primary
// crashed and restarted mid-storm so shedding and failover interleave.
// A monitor samples the primary's admitted and waiting request counts,
// which must stay under their configured bounds (the never-OOM-queue
// guarantee); after the storm a closed-loop probe must complete again
// (graceful recovery, not congestion collapse). The surviving history —
// sheds and expired deadlines are discarded as definite no-executes —
// must be linearizable, and the run must have shed and failed over.
func overloadPreset(r *execution) {
	var failovers, maxOut, maxWait, sheds, deadline, recovered int
	var monitor *env.Group
	clients := make([]*cluster.Client, r.Clients)
	r.options = func(o *cluster.Options) {
		o.Template.ElectionTimeout = 120 * time.Millisecond
		o.Template.ReadWorkers = 2
		o.Template.ReadWaitTimeout = 300 * time.Millisecond
		o.Template.MaxOutstanding = overloadMaxOutstanding
		o.Template.MaxAdmissionWaiters = overloadMaxWaiters
		o.Template.AdmissionTarget = 5 * time.Millisecond
		o.Template.AdmissionInterval = 25 * time.Millisecond
	}
	r.load = func(ci int, rng *rand.Rand) func(int) time.Duration {
		// Every worker is its own client hammering the hot-key set in a
		// tight loop: offered load is set by fleet size, not completion
		// rate. The recorded sample and the bulk fleet use disjoint key
		// spaces — a recorded read returning an unrecorded client's value
		// would look like a lost write — while admission pressure stays
		// global.
		cl := r.c.NewClient(uint64(100 + ci))
		clients[ci] = cl
		prefix := "bulk"
		if ci < overloadRecorded {
			cl.Recorder = r.hist
			prefix = "hot"
		}
		zipf := rand.NewZipf(rng, 1.3, 1.0, 31)
		return func(seq int) time.Duration {
			key := fmt.Sprintf("%s-%d", prefix, zipf.Uint64())
			val := strconv.FormatUint(uint64(ci)<<32|uint64(seq), 10)
			if _, err := cl.DoTimeout(hashdb.SetReq(key, []byte(val)), overloadOpTimeout); err != nil {
				r.timeout()
			}
			if seq%8 == 7 {
				// Linearizable reads ride along: under pressure they must
				// be served lease-only or shed — never go stale.
				if _, err := cl.QueryLevelTimeout(readpath.Linearizable, hashdb.GetReq(key), overloadOpTimeout); err != nil {
					r.timeout()
				}
			}
			return 0
		}
	}
	r.nemesis = func() {
		c := r.c
		stormEnd := r.begin + r.Duration
		// The monitor is the only writer of the peaks, read after its Wait.
		monitor = env.GoEach(r.e, "overload-monitor", 1, func(int) {
			for r.e.Now() < stormEnd+200*time.Millisecond {
				if p := c.Primary(); p >= 0 {
					if rp := c.Replica(p); rp != nil {
						maxOut = max(maxOut, rp.Stats().Outstanding)
						maxWait = max(maxWait, int(rp.Metrics().Gauges["rex_admission_waiters"]))
					}
				}
				r.e.Sleep(5 * time.Millisecond)
			}
		})
		// Mid-storm, kill the primary outright: the new one must shed on
		// its own. A restarted replica's registry starts from zero, so its
		// counters are banked first.
		r.e.Sleep(r.Duration / 3)
		p := c.Primary()
		if p < 0 {
			return
		}
		if rp := c.Replica(p); rp != nil {
			sheds += int(counter("rex_shed_total")(rp))
			deadline += int(counter("rex_deadline_exceeded_total")(rp))
		}
		r.note("crash_primary", "crash primary %d mid-storm", p)
		c.Crash(p)
		r.e.Sleep(400 * time.Millisecond)
		r.note("restart", "restart old primary %d", p)
		if err := c.Restart(p); err != nil {
			r.log("chaos: restart %d: %v", p, err)
		}
		for r.e.Now() < stormEnd {
			if np := c.Primary(); np >= 0 && np != p {
				failovers++
				return
			}
			r.e.Sleep(10 * time.Millisecond)
		}
	}
	r.probe = func() {
		sheds += r.sum(counter("rex_shed_total"))
		deadline += r.sum(counter("rex_deadline_exceeded_total"))
		probe := env.GoEach(r.e, "overload-probe", overloadProbes, func(ci int) {
			cl := r.c.NewClient(uint64(900 + ci))
			cl.Recorder = r.hist
			key := fmt.Sprintf("probe-%d", ci)
			for seq := 0; seq < overloadProbeOps/overloadProbes; seq++ {
				if _, err := cl.DoTimeout(hashdb.SetReq(key, []byte(strconv.Itoa(seq))), 3*time.Second); err == nil {
					recovered++
				}
				r.e.Sleep(5 * time.Millisecond)
			}
		})
		probe.Wait()
		monitor.Wait()
	}
	r.invariants = func() {
		budgetDry := 0
		for _, cl := range clients {
			budgetDry += int(cl.BudgetExhausted)
		}
		r.require(failovers > 0, "no failover observed: the nemesis never deposed the primary mid-storm")
		r.require(sheds > 0, "no rex_shed_total increment: the storm never tripped admission control")
		r.require(maxOut <= overloadMaxOutstanding, fmt.Sprintf(
			"admitted requests peaked at %d, above the MaxOutstanding=%d bound", maxOut, overloadMaxOutstanding))
		r.require(maxWait <= overloadMaxWaiters, fmt.Sprintf(
			"admission waiters peaked at %d, above the MaxAdmissionWaiters=%d bound", maxWait, overloadMaxWaiters))
		r.require(recovered >= overloadProbeOps*4/5, fmt.Sprintf(
			"post-storm probe completed only %d/%d ops: the cluster did not recover steady service", recovered, overloadProbeOps))
		r.count("failovers", failovers)
		r.count("discarded", r.hist.Len()-len(r.hist.Ops()))
		r.count("sheds", sheds)
		r.count("deadline", deadline)
		r.count("budget_dry", budgetDry)
		r.count("max_out", maxOut)
		r.count("max_wait", maxWait)
		r.count("recovered", recovered)
	}
}

// shardsPreset checks fault isolation across replica groups: routed
// clients load every group for Duration/2, one group's primary (chosen
// by the seed) is killed, and for another Duration/2 every other group
// must keep at least half its pre-kill rate (the blast radius) while
// the victim re-elects and serves again.
func shardsPreset(r *execution) {
	keys, phase := 8*r.Groups, r.Duration/2
	done := make([]int, r.Groups) // committed ops per group
	r.endsLoad = true
	r.load = func(ci int, rng *rand.Rand) func(int) time.Duration {
		// One client per group per task, all recording into the history
		// under one id: each task issues one operation at a time.
		gcs := make([]*cluster.Client, r.Groups)
		for g := range gcs {
			gcs[g] = r.mc.Groups[g].NewClient(uint64(100 + ci))
			gcs[g].Recorder = r.hist
		}
		return func(seq int) time.Duration {
			k := fmt.Sprintf("k%d", rng.Intn(keys))
			body := hashdbOp(rng, k, fmt.Sprintf("c%d-n%d", ci, seq))
			g := r.mc.Map.GroupFor([]byte(k))
			if _, err := gcs[g].DoTimeout(body, 2*time.Second); err != nil {
				r.timeout()
				return 0
			}
			done[g]++
			return ms(rng, 1, 5)
		}
	}
	r.nemesis = func() {
		defer r.stopLoad()
		measure := func() []int {
			before := append([]int(nil), done...)
			r.e.Sleep(phase)
			for g := range before {
				before[g] = done[g] - before[g]
			}
			return before
		}
		r.e.Sleep(phase)
		pre := measure()
		victim := int(uint64(r.Seed) % uint64(r.Groups))
		p, err := r.mc.CrashGroupPrimary(victim)
		if err != nil {
			r.failf("%v", err)
			return
		}
		r.note("crash_primary", "crash group %d primary (replica %d)", victim, p)
		post := measure()
		worst := 100
		for g := range pre {
			if pre[g] == 0 {
				r.failf("group %d idle before the kill", g)
				continue
			}
			if g == victim {
				continue
			}
			r.require(2*post[g] >= pre[g], fmt.Sprintf(
				"group %d throughput collapsed during group %d failover: %.0f -> %.0f ops/sec",
				g, victim, float64(pre[g])/phase.Seconds(), float64(post[g])/phase.Seconds()))
			worst = min(worst, 100*post[g]/pre[g])
		}
		if _, err := r.mc.Groups[victim].WaitPrimary(5 * time.Second); err != nil {
			r.failf("group %d after kill: %v", victim, err)
		}
		r.count("killed_group", victim)
		r.count("killed_replica", p)
		r.count("survivor_min_pct", worst)
	}
}

// rebalance preset pacing: map changes to drive (at least one of each
// kind completes regardless) and the primary-kill cadence.
const (
	rebalanceOps       = 6
	rebalanceKillEvery = 400 * time.Millisecond
)

// rebalancePreset churns the shard map under load: routed clients run
// keyed writes, reads and session traffic while one nemesis drives
// random split/merge/move rounds through the coordinator (at least one
// of each must complete) and a killer crashes and restarts group
// primaries, the map's home group included. The history is ONE global
// history recorded at the router, so an operation landing on the wrong
// group during a map transition surfaces as a stale read or lost write;
// every client's session reads must stay read-your-writes and monotonic
// across the ownership flips.
func rebalancePreset(r *execution) {
	keys := 12 * r.Groups
	r.endsLoad = true
	r.options = func(o *cluster.Options) {
		o.Template.ReadWorkers = 2
		o.LiveRebalance = true
	}
	r.load = func(ci int, rng *rand.Rand) func(int) time.Duration {
		// One enveloped router per task: it follows map changes on its own.
		// Routers use groups+1 ids, so idBases are spaced by 64.
		rt := r.mc.NewRouter(uint64(100 + 64*ci))
		rt.Recorder = r.hist
		sessKey := fmt.Sprintf("sess-%d", ci)
		var sessVer uint64
		return func(seq int) time.Duration {
			if rng.Intn(4) == 0 {
				// Session traffic on the client's private key.
				if rng.Intn(2) == 0 {
					next := sessVer + 1
					if _, err := rt.Do([]byte(sessKey), hashdb.SetReq(sessKey, []byte(strconv.FormatUint(next, 10)))); err == nil {
						sessVer = next
						r.session(check.SessionEvent{Client: uint64(ci), Kind: check.SessionWrite, Version: next})
					}
				} else if resp, err := rt.QueryLevel([]byte(sessKey), readpath.Session, hashdb.GetReq(sessKey)); err == nil {
					if ver, err := readVersion(resp); err != nil {
						r.failf("client %d: %v", ci, err)
					} else {
						r.session(check.SessionEvent{Client: uint64(ci), Kind: check.SessionRead, Version: ver, Level: "session"})
					}
				}
				return ms(rng, 1, 5)
			}
			k := fmt.Sprintf("k%d", rng.Intn(keys))
			if _, err := rt.Do([]byte(k), hashdbOp(rng, k, fmt.Sprintf("c%d-n%d", ci, seq))); err != nil {
				r.timeout()
			}
			return ms(rng, 1, 5)
		}
	}
	r.nemesis = func() {
		defer r.stopLoad()
		r.e.Sleep(300 * time.Millisecond) // warm-up load before the churn

		// The killer crashes a random group's primary, lets the group
		// fail over, then restarts the replica so quorums never shrink
		// for long.
		churn := true
		killer := env.GoEach(r.e, "rebalance-chaos-killer", 1, func(int) {
			rng := rand.New(rand.NewSource(r.Seed*31 + 5))
			for churn {
				r.e.Sleep(rebalanceKillEvery)
				g := rng.Intn(r.Groups)
				p, err := r.mc.CrashGroupPrimary(g)
				if err != nil {
					continue
				}
				r.note("crash_primary", "crash group %d primary (replica %d)", g, p)
				r.e.Sleep(300 * time.Millisecond)
				if err := r.mc.Groups[g].Restart(p); err != nil {
					r.failf("restart group %d replica %d: %v", g, p, err)
					return
				}
			}
		})

		// The plan: random split/merge/move rounds until at least one of
		// each kind completed; a merge with no same-owner adjacent pair
		// splits instead so one exists next round.
		cd := r.mc.NewCoordinator(9000, r.reg)
		cd.Logf = r.logf
		rng := rand.New(rand.NewSource(r.Seed*17 + 3))
		var splits, merges, moves int
		attempt := func(what string, err error, done *int) {
			if err == nil {
				*done++
			} else if !errors.Is(err, rebalance.ErrProposeConflict) { // map-version races retry
				r.failf("%s: %v", what, err)
			}
		}
		for round := 0; round < rebalanceOps || splits == 0 || merges == 0 || moves == 0; round++ {
			if round > rebalanceOps+8 {
				r.failf("rebalance plan stalled: %d splits, %d merges, %d moves after %d rounds", splits, merges, moves, round)
				break
			}
			cur, _, err := cd.FetchMap()
			if err != nil {
				r.failf("fetch map: %v", err)
				break
			}
			kind := rng.Intn(3)
			if kind == 1 && merges > 0 && moves == 0 {
				kind = 2 // don't burn rounds re-merging before the first move
			}
			switch kind {
			case 0:
				at, ok := pickSplitPoint(cur, rng)
				if !ok {
					continue
				}
				_, err := cd.Split(at)
				attempt(fmt.Sprintf("split at %#x", at), err, &splits)
			case 1:
				boundary, ok := pickMergeBoundary(cur)
				if !ok {
					if at, ok := pickSplitPoint(cur, rng); ok {
						if _, err := cd.Split(at); err == nil {
							splits++
						}
					}
					continue
				}
				_, err := cd.Merge(boundary)
				attempt(fmt.Sprintf("merge at %#x", boundary), err, &merges)
			case 2:
				at, dest, ok := pickMove(cur, rng)
				if !ok {
					continue
				}
				_, err := cd.Move(at, dest)
				attempt(fmt.Sprintf("move %#x -> group %d", at, dest), err, &moves)
			}
			r.e.Sleep(ms(rng, 50, 150))
		}
		churn = false
		killer.Wait()

		version := 0
		if fm, _, err := cd.FetchMap(); err != nil {
			r.failf("final map: %v", err)
		} else {
			version = int(fm.Version)
			r.log("final map:\n%s", fm)
		}
		r.e.Sleep(300 * time.Millisecond) // drain the load
		r.count("splits", splits)
		r.count("merges", merges)
		r.count("moves", moves)
		r.count("map_version", version)
	}
}

// pickSplitPoint finds a random range wide enough to split and returns
// its midpoint.
func pickSplitPoint(m *shard.ShardMap, rng *rand.Rand) (uint64, bool) {
	if len(m.Ranges) == 0 {
		return 0, false
	}
	for try := 0; try < 8; try++ {
		i := rng.Intn(len(m.Ranges))
		lo, hi := m.RangeBounds(i)
		if hi-lo < 2 {
			continue
		}
		return lo + (hi-lo)/2 + 1, true
	}
	return 0, false
}

// pickMergeBoundary scans for an interior boundary whose two sides share
// an owner.
func pickMergeBoundary(m *shard.ShardMap) (uint64, bool) {
	for i := 1; i < len(m.Ranges); i++ {
		if m.Ranges[i].Group == m.Ranges[i-1].Group {
			return m.Ranges[i].Start, true
		}
	}
	return 0, false
}

// pickMove picks a random range and a random different destination
// group.
func pickMove(m *shard.ShardMap, rng *rand.Rand) (uint64, int, bool) {
	if len(m.Ranges) == 0 || m.Groups() < 2 {
		return 0, 0, false
	}
	i := rng.Intn(len(m.Ranges))
	dest := rng.Intn(m.Groups() - 1)
	if dest >= m.Ranges[i].Group {
		dest++
	}
	return m.Ranges[i].Start, dest, true
}
