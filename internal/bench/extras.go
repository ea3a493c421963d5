package bench

import (
	"fmt"
	"io"
	"time"

	"rex/internal/apps"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/rexsync"
	"rex/internal/sched"
	"rex/internal/sim"
	"rex/internal/trace"
)

// PrintTable1 reproduces Table 1: synchronization primitives per
// application.
func PrintTable1(w io.Writer) {
	t := &Table{
		Title: "Table 1: synchronization primitives used",
		Cols:  []string{"application", "primitives"},
	}
	for _, a := range apps.All() {
		prims := ""
		for i, p := range a.Primitives {
			if i > 0 {
				prims += ", "
			}
			prims += p
		}
		t.AddRow(a.Title, prims)
	}
	t.Fprint(w)
}

// TraceStats runs a short Rex measurement for the §6.3 trace-size
// profile of one application: bytes per synchronization event, events
// per request, edges per event, and the sync events' share of the log.
func TraceStats(app apps.App, threads int) RunResult {
	return RunRex(RunConfig{
		App: app, Threads: threads,
		Warmup: 150 * time.Millisecond, Measure: 500 * time.Millisecond,
	})
}

// PrintTraceStats renders the trace-size profile for every application.
func PrintTraceStats(w io.Writer, threads int) {
	t := &Table{
		Title: "§6.3: trace size profile (committed log)",
		Cols:  []string{"application", "bytes/event", "events/request", "edges/event", "sync share of log"},
	}
	for _, a := range apps.All() {
		s := TraceStats(a, threads)
		t.AddRow(a.Title, f1(s.BytesPerEvent), f1(s.EventsPerReq), f2(s.EdgesPerEvent),
			fmt.Sprintf("%.0f%%", s.SyncShare*100))
	}
	t.Notes = append(t.Notes,
		"paper: each sync event adds ~16 bytes; sync events add 0-70% to the log size.")
	t.Fprint(w)
}

// EdgeAblation compares causal-edge volume with and without vector-clock
// pruning (§4.2's 58-99% reduction).
type EdgeAblationResult struct {
	EdgesPerEventPruned   float64
	EdgesPerEventUnpruned float64
	Reduction             float64
}

// EdgeAblation measures one application.
func EdgeAblation(app apps.App, threads int) EdgeAblationResult {
	base := RunConfig{
		App: app, Threads: threads,
		Warmup: 150 * time.Millisecond, Measure: 500 * time.Millisecond,
	}
	pruned := RunRex(base)
	noprune := base
	noprune.DisablePruning = true
	unpruned := RunRex(noprune)
	res := EdgeAblationResult{
		EdgesPerEventPruned:   pruned.EdgesPerEvent,
		EdgesPerEventUnpruned: unpruned.EdgesPerEvent,
	}
	if unpruned.EdgesPerEvent > 0 {
		res.Reduction = 1 - pruned.EdgesPerEvent/unpruned.EdgesPerEvent
	}
	return res
}

// PrintEdgeAblation renders the pruning ablation across applications.
func PrintEdgeAblation(w io.Writer, threads int) {
	t := &Table{
		Title: "Ablation (§4.2): causal-edge pruning",
		Cols:  []string{"application", "edges/event (pruned)", "edges/event (unpruned)", "reduction"},
	}
	for _, a := range apps.All() {
		r := EdgeAblation(a, threads)
		t.AddRow(a.Title, f2(r.EdgesPerEventPruned), f2(r.EdgesPerEventUnpruned),
			fmt.Sprintf("%.0f%%", r.Reduction*100))
	}
	t.Notes = append(t.Notes, "paper: pruning removes 58-99% of causal edges.")
	t.Fprint(w)
}

// PartialOrderResult compares replay cost between the paper's
// partial-order TryLock recording (Fig. 4 right) and the naive total order
// (Fig. 4 left): the virtual time a secondary needs to replay an identical
// workload, and how many replayed events blocked on an edge.
type PartialOrderResult struct {
	RecordTime  time.Duration
	PartialTime time.Duration
	TotalTime   time.Duration

	PartialEdges  int
	TotalEdges    int
	PartialWaited uint64
	TotalWaited   uint64
}

// PartialOrderAblation records the Fig. 4 scenario — one long-holding
// thread plus heterogeneous pollers issuing failing TryLocks — under both
// recordings, then replays each trace and measures wall (virtual) replay
// time directly at the scheduler level.
func PartialOrderAblation(pollers int) PartialOrderResult {
	var res PartialOrderResult
	run := func(totalOrder bool) (time.Duration, time.Duration, int, uint64) {
		tr := trace.New(pollers + 1)
		// Record. Heterogeneous rates: under a total order, fast pollers
		// chain behind slow ones during replay.
		recTime := fig4(pollers, func(rt *sched.Runtime) *rexsync.Lock {
			rt.TotalOrderTryFail = totalOrder
			rt.StartRecord(nil, 0)
			return rexsync.NewLock(rt, "fig4")
		}, func(p int) int { return p + 1 }, func(rt *sched.Runtime) {
			if err := tr.Apply(rt.Recorder().Collect()); err != nil {
				panic(err)
			}
		})
		// Replay, with the pacing perturbed (the speed assignment
		// reversed): compute is not traced, and real replays diverge from
		// the recorded schedule anyway. Under the partial order the
		// pollers stay independent; under the total order the false
		// tryfail chain propagates the perturbation.
		var waited uint64
		repTime := fig4(pollers, func(rt *sched.Runtime) *rexsync.Lock {
			lock := rexsync.NewLock(rt, "fig4")
			rt.StartReplay(tr, nil)
			return lock
		}, func(p int) int { return pollers - p }, func(rt *sched.Runtime) {
			_, waited = rt.Replayer().Stats()
		})
		return recTime, repTime, tr.EdgeCount(), waited
	}
	var rt1, rt2 time.Duration
	rt1, res.PartialTime, res.PartialEdges, res.PartialWaited = run(false)
	rt2, res.TotalTime, res.TotalEdges, res.TotalWaited = run(true)
	res.RecordTime = (rt1 + rt2) / 2
	return res
}

// fig4 runs the Fig. 4 workload once on a fresh simulator and returns the
// virtual time it took: a holder takes the lock 40 times for 300 µs
// each, and poller p computes 20×speed(p) µs before each of its 40
// TryLocks. start readies the runtime (recording or replaying) and
// returns the lock; done reads the runtime afterwards.
func fig4(pollers int, start func(*sched.Runtime) *rexsync.Lock, speed func(p int) int, done func(*sched.Runtime)) time.Duration {
	const iters = 40
	e := sim.New(pollers + 2)
	var took time.Duration
	e.Run(func() {
		rt := sched.NewRuntime(e, pollers+1, sched.ModeNative)
		lock := start(rt)
		t0 := e.Now()
		g := env.NewGroup(e)
		g.Add(pollers + 1)
		e.Go("holder", func() {
			defer g.Done()
			w := rt.Worker(0)
			for i := 0; i < iters; i++ {
				lock.Lock(w)
				e.Compute(300 * time.Microsecond)
				lock.Unlock(w)
				e.Sleep(50 * time.Microsecond)
			}
		})
		for p := 0; p < pollers; p++ {
			p := p
			e.Go("poller", func() {
				defer g.Done()
				w := rt.Worker(p + 1)
				compute := time.Duration(20*speed(p)) * time.Microsecond
				for i := 0; i < iters; i++ {
					e.Compute(compute)
					if lock.TryLock(w) {
						lock.Unlock(w)
					}
				}
			})
		}
		g.Wait()
		took = e.Now() - t0
		done(rt)
	})
	return took
}

// PrintPartialOrderAblation renders the Fig. 4 ablation.
func PrintPartialOrderAblation(w io.Writer, pollers int) {
	r := PartialOrderAblation(pollers)
	t := &Table{
		Title: "Ablation (§4.2, Fig. 4): TryLock partial order vs total order",
		Cols:  []string{"recording", "replay time", "vs record", "edges", "waited events"},
	}
	rec := r.RecordTime.Seconds()
	t.AddRow("record (reference)", r.RecordTime.String(), "1.00x", "-", "-")
	t.AddRow("partial order (Rex)", r.PartialTime.String(),
		fmt.Sprintf("%.2fx", r.PartialTime.Seconds()/rec), fmt.Sprint(r.PartialEdges), fmt.Sprint(r.PartialWaited))
	t.AddRow("total order (naive)", r.TotalTime.String(),
		fmt.Sprintf("%.2fx", r.TotalTime.Seconds()/rec), fmt.Sprint(r.TotalEdges), fmt.Sprint(r.TotalWaited))
	t.Notes = append(t.Notes,
		"paper: total ordering failed TryLocks forces replay waits that are not true causal",
		"dependencies, reducing replay parallelism (and recording more edges).")
	t.Fprint(w)
}

// DeltaAblation compares the one-active-instance delta proposals (§3.1)
// against hypothetical full-trace proposals, in proposal bytes.
type DeltaAblationResult struct {
	Instances  int
	DeltaBytes uint64
	FullBytes  uint64
}

// DeltaAblation measures one application's proposal volume both ways, on
// a short Rex load as seen by the primary. The full-trace volume is the sum
// of prefix sizes: proposing the whole trace in every instance.
func DeltaAblation(app apps.App, threads int) DeltaAblationResult {
	const seed = 42
	var st core.Stats
	simulate(24, fmt.Sprintf("delta ablation, %s, %d threads", app.Name, threads), func(r *rig) {
		c, p := r.group(app, options(app, threads, 2*threads, seed))
		r.clients(2*threads, 0, func(i int) op {
			return appOp(app, seed, i, false, via(c.NewClient(uint64(100+i))))
		})
		r.Env.Sleep(500 * time.Millisecond)
		st = c.Replicas[p].Stats()
	})
	return DeltaAblationResult{
		Instances:  int(st.DeltasCommitted),
		DeltaBytes: st.BytesCommitted,
		FullBytes:  st.FullTraceBytes,
	}
}

// PrintDeltaAblation renders the delta-proposal ablation.
func PrintDeltaAblation(w io.Writer, threads int) {
	app := apps.LSMKV()
	r := DeltaAblation(app, threads)
	t := &Table{
		Title: "Ablation (§3.1): delta proposals vs full-trace proposals",
		Cols:  []string{"instances", "delta proposal bytes", "full-trace proposal bytes", "ratio"},
	}
	ratio := 0.0
	if r.DeltaBytes > 0 {
		ratio = float64(r.FullBytes) / float64(r.DeltaBytes)
	}
	t.AddRow(fmt.Sprint(r.Instances), fmt.Sprint(r.DeltaBytes), fmt.Sprint(r.FullBytes), f1(ratio))
	t.Notes = append(t.Notes,
		"proposing only the growth on top of the previously committed trace keeps proposal",
		"volume linear; re-proposing the full trace would grow quadratically.")
	t.Fprint(w)
}
