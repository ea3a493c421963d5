package chaos

import (
	"fmt"
	"io"
	"testing"
	"time"

	"rex/internal/check"
	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/obs"
	"rex/internal/rexsync"
	"rex/internal/sched"
	"rex/internal/sim"
	"rex/internal/wire"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(42, 3, 3*time.Second)
	b := Generate(42, 3, 3*time.Second)
	if len(a.Steps) == 0 {
		t.Fatal("empty schedule")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	c := Generate(43, 3, 3*time.Second)
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatal("different seeds produced identical schedules")
	}
	for i := 1; i < len(a.Steps); i++ {
		if a.Steps[i].At < a.Steps[i-1].At {
			t.Fatalf("steps out of order at %d: %v", i, a.Steps)
		}
	}
}

func TestScenarioDerivedFromSeed(t *testing.T) {
	a, err := NewScenario(Scenario{Seed: 7, App: "all"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewScenario(Scenario{Name: "generic", Seed: 7, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if a.App != b.App {
		t.Fatalf("app not derived from seed alone: %q vs %q", a.App, b.App)
	}
	if a.Duration != 3*time.Second || b.Duration != 2*time.Second {
		t.Fatalf("durations %v, %v: want the preset default 3s and the explicit 2s", a.Duration, b.Duration)
	}
	for _, bad := range []Scenario{
		{Seed: 1, App: "nosuchapp"},
		{Name: "nosuchscenario"},
		{Name: "reads", App: "memcache"},
		{Name: "reads", Groups: 2},
		{Name: "rebalance", Duration: time.Second},
	} {
		if _, err := NewScenario(bad); err == nil {
			t.Errorf("%+v accepted", bad)
		}
	}
}

// TestScenarioSmoke runs one short scenario end to end and requires a
// clean verdict plus populated metrics.
func TestScenarioSmoke(t *testing.T) {
	reg := obs.NewRegistry()
	res := runScenario(t, Scenario{Seed: 1, App: "memcache", Duration: 1500 * time.Millisecond}, reg, nil)
	if !res.OK {
		t.Fatalf("scenario failed: %v", res.Violations)
	}
	if res.Ops == 0 || res.Checked == 0 || res.Faults == 0 {
		t.Fatalf("no operations recorded/checked or no faults applied: %+v", res)
	}
	snap := reg.Snapshot()
	if snap.Counter("chaos_scenarios_run") != 1 || snap.Counter("chaos_histories_verified") != 1 {
		t.Fatalf("metrics not recorded: %v", snap.Counters)
	}
	if snap.Histogram("chaos_checker_wall").Count != 1 {
		t.Fatalf("chaos_checker_wall not observed: %v", snap.Histograms)
	}
}

// TestRecoveryScenarioPinnedSeed replays the bounded-recovery scenario at
// a pinned seed: checkpoints disabled, promote/demote churn, and a
// secondary bounced across checkpoint-floor compaction. This configuration
// used to livelock and then panic in Replayer.Extend; the scenario must
// now finish with every replica live, the history linearizable, and at
// least one rex_resync_total increment proving the defensive resync path
// (not luck) carried the lagging replica back.
func TestRecoveryScenarioPinnedSeed(t *testing.T) {
	res := runScenario(t, Scenario{Name: "recovery", Seed: 1, Duration: 4 * time.Second}, nil, nil)
	if !res.OK {
		t.Fatalf("recovery scenario failed: %v", res.Violations)
	}
	if res.Count("resyncs") < 1 {
		t.Fatalf("resyncs = %d, want >= 1", res.Count("resyncs"))
	}
	if res.Ops == 0 || res.Checked == 0 {
		t.Fatalf("no operations recorded/checked: %+v", res)
	}
	t.Logf("recovery: app=%s faults=%d ops=%d counts=%v", res.App, res.Faults, res.Ops, res.Counts)
}

// journal is an order-sensitive state machine for the bug-detection test:
// every request appends its tag to one list under a single Rex lock. A
// request tagged 's' runs on worker 1 and, on a replica that replays it,
// takes a slow step before its append, as a follower whose core is busy
// would; any other request appends at once on worker 0. The recorded lock
// edges are then the only thing that makes replay append in the primary's
// order.
type journal struct {
	mu      *rexsync.Lock
	entries []string
}

// journalSlowStep is the replay-only compute before a slow request's
// append: far longer than a few consensus rounds, so the next request's
// delta reaches a secondary while it is still in the slow step.
const journalSlowStep = 20 * time.Millisecond

func newJournal() core.Factory {
	return func(rt *sched.Runtime, host *core.TimerHost) core.StateMachine {
		return &journal{mu: rexsync.NewLock(rt, "journal")}
	}
}

func (j *journal) Apply(ctx *core.Ctx, req []byte) []byte {
	w := ctx.Worker()
	if req[0] == 's' && w.Mode() == sched.ModeReplay {
		ctx.Compute(journalSlowStep)
	}
	j.mu.Lock(w)
	j.entries = append(j.entries, string(req))
	j.mu.Unlock(w)
	return []byte{1}
}

// ClassifyConflict pins slow requests to worker 1 and the rest to worker
// 0 (of two). The journal lock is not class-owned, so its events stay in
// the trace.
func (j *journal) ClassifyConflict(req []byte) core.ConflictClass {
	if req[0] == 's' {
		return 1
	}
	return 2
}

func (j *journal) WriteCheckpoint(w io.Writer) error {
	e := wire.NewEncoder(nil)
	e.Uvarint(uint64(len(j.entries)))
	for _, s := range j.entries {
		e.BytesVal([]byte(s))
	}
	_, err := w.Write(e.Bytes())
	return err
}

func (j *journal) ReadCheckpoint(r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	d := wire.NewDecoder(buf)
	n := d.Uvarint()
	j.entries = nil
	for i := uint64(0); i < n; i++ {
		j.entries = append(j.entries, string(d.BytesVal()))
	}
	return d.Err()
}

// runJournalLoad has one client alternate slow and fast appends, each
// sent once the previous one is answered, and returns any structural
// violations found after quiescence. On the primary every fast append
// follows the slow one before it, and its lock acquisition carries a
// causal edge from the slow request's release. A secondary receives the
// fast request while its worker 1 is still in the slow step, so a
// replayer that skips causal edges appends the fast request first, every
// pair. With buggy set, replay does exactly that and the runtime's own
// divergence checks are disabled (core.Config.UnsafeBrokenReplay), leaving
// detection entirely to the checker.
func runJournalLoad(t *testing.T, seed int64, buggy bool) []string {
	t.Helper()
	e := sim.New(4)
	var violations []string
	e.Run(func() {
		c := cluster.New(e, newJournal(), cluster.Options{
			Replicas: 3,
			Template: core.Config{
				Workers:            2,
				HeartbeatEvery:     20 * time.Millisecond,
				ElectionTimeout:    100 * time.Millisecond,
				StatusEvery:        20 * time.Millisecond,
				Seed:               seed,
				UnsafeBrokenReplay: buggy,
			},
		})
		if err := c.Start(); err != nil {
			violations = append(violations, err.Error())
			return
		}
		if _, err := c.WaitPrimary(5 * time.Second); err != nil {
			violations = append(violations, err.Error())
			return
		}
		cl := c.NewClient(10)
		for k := 0; k < 10; k++ {
			for _, tag := range []string{"s", "f"} {
				if _, err := cl.DoTimeout([]byte(fmt.Sprintf("%s%d", tag, k)), 5*time.Second); err != nil {
					violations = append(violations, fmt.Sprintf("%s%d: %v", tag, k, err))
					return
				}
			}
		}
		states, faults, err := c.StableStates(30 * time.Second)
		if err != nil {
			violations = append(violations, err.Error())
			return
		}
		for i, ferr := range faults {
			violations = append(violations, fmt.Sprintf("replica %d faulted: %v", i, ferr))
		}
		violations = append(violations, check.StateAgreement(states)...)
	})
	return violations
}

// TestCheckerCatchesBrokenReplayer proves the consistency checker has
// teeth: an intentionally broken build whose replayer ignores causal
// edges must produce a state-agreement violation, while the same workload
// on the correct build must not. The workload exposes the broken build by
// construction, so one pinned seed decides both.
func TestCheckerCatchesBrokenReplayer(t *testing.T) {
	if v := runJournalLoad(t, 1, false); len(v) != 0 {
		t.Fatalf("correct build reported violations: %v", v)
	}
	v := runJournalLoad(t, 1, true)
	if len(v) == 0 {
		t.Fatal("broken replayer produced no detectable divergence")
	}
	t.Logf("broken replayer caught: %v", v[0])
}

// TestReadsScenarioPinnedSeed replays the consistent-read scenario at a
// pinned seed: the primary is repeatedly isolated mid-lease, so the run
// must survive at least one failover with no stale linearizable read (the
// history stays linearizable), session reads staying read-your-writes and
// monotonic, and both read fast paths demonstrably exercised.
func TestReadsScenarioPinnedSeed(t *testing.T) {
	res := runScenario(t, Scenario{Name: "reads", Seed: 1, Duration: 4 * time.Second}, nil, nil)
	if !res.OK {
		t.Fatalf("reads scenario failed: %v", res.Violations)
	}
	for _, name := range []string{"failovers", "lease_reads", "follower_reads", "session_ops"} {
		if res.Count(name) < 1 {
			t.Errorf("%s = %d, want >= 1", name, res.Count(name))
		}
	}
	if res.Ops == 0 || res.Checked == 0 {
		t.Fatalf("no operations recorded/checked: %+v", res)
	}
	t.Logf("reads: faults=%d ops=%d timeouts=%d counts=%v", res.Faults, res.Ops, res.Timeouts, res.Counts)
}

// TestConflictsScenarioPinnedSeed replays the conflict-class scenario at
// a pinned seed: with elision on, failovers mid-load, contended shared
// keys, and catch-all sweeps, the history must stay linearizable, the
// replicas must agree (including after a secondary replays the elided
// trace from its own log), and the run must demonstrably have elided
// lock events and completed at least one barrier-dispatched sweep.
func TestConflictsScenarioPinnedSeed(t *testing.T) {
	res := runScenario(t, Scenario{Name: "conflicts", Seed: 1, Duration: 4 * time.Second}, nil, nil)
	if !res.OK {
		t.Fatalf("conflicts scenario failed: %v", res.Violations)
	}
	for _, name := range []string{"failovers", "elided", "sweeps"} {
		if res.Count(name) < 1 {
			t.Errorf("%s = %d, want >= 1", name, res.Count(name))
		}
	}
	if res.Ops == 0 || res.Checked == 0 {
		t.Fatalf("no operations recorded/checked: %+v", res)
	}
	t.Logf("conflicts: faults=%d ops=%d timeouts=%d counts=%v", res.Faults, res.Ops, res.Timeouts, res.Counts)
}

// TestScenarioRerunStartsFresh runs one Scenario value twice: the
// preset's per-run state (here the failover and sweep counts) belongs to
// each run, so the deterministic conflicts preset must give the same
// numbers both times instead of adding them up.
func TestScenarioRerunStartsFresh(t *testing.T) {
	sc := Scenario{Name: "conflicts", Seed: 1, Duration: time.Second}
	first, again := sc.Run(nil, nil), sc.Run(nil, nil)
	if !first.OK || !again.OK {
		t.Fatalf("violations: %v / %v", first.Violations, again.Violations)
	}
	if first.Ops != again.Ops || fmt.Sprint(first.Counts) != fmt.Sprint(again.Counts) {
		t.Fatalf("rerun differs: ops %d %v, then ops %d %v", first.Ops, first.Counts, again.Ops, again.Counts)
	}
}

// TestOverloadScenarioPinnedSeed replays the overload scenario at a
// pinned seed: a zipfian hot-key storm saturates a deliberately tiny
// primary while the nemesis crashes it mid-storm. The run must shed
// (admission control demonstrably engaged), fail over at least once,
// keep the primary's queues under their configured bounds, recover
// steady service after the storm, and the surviving history must stay
// linearizable.
func TestOverloadScenarioPinnedSeed(t *testing.T) {
	res := runScenario(t, Scenario{Name: "overload", Seed: 1}, nil, nil)
	if !res.OK {
		t.Fatalf("overload scenario failed: %v", res.Violations)
	}
	for _, name := range []string{"failovers", "sheds"} {
		if res.Count(name) < 1 {
			t.Errorf("%s = %d, want >= 1", name, res.Count(name))
		}
	}
	if res.Ops == 0 || res.Checked == 0 {
		t.Fatalf("no operations recorded/checked: %+v", res)
	}
	t.Logf("overload: faults=%d ops=%d timeouts=%d counts=%v", res.Faults, res.Ops, res.Timeouts, res.Counts)
}
