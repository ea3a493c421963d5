package rexsync

import (
	"fmt"
	"math"
	"testing"
	"time"

	"rex/internal/env"
	"rex/internal/sched"
	"rex/internal/sim"
	"rex/internal/trace"
)

// script is a per-worker program run against a shared world; the same
// scripts run in record mode on one runtime and in replay mode on another,
// and the worlds must end up identical.
type script func(w *sched.Worker, world *world)

// world is shared mutable state whose final value is order-sensitive, so
// identical outcomes imply identical synchronization order.
type world struct {
	lockA, lockB *Lock
	rw           *RWLock
	cond         *Cond
	sem          *Semaphore

	log     []string // appended under lockA: captures acquisition order
	counter int      // guarded by lockB
	shared  int      // guarded by rw
	queue   []int    // guarded by lockA, cond signals availability
	reads   []int    // values observed by readers (appended under lockB)
}

func newWorld(rt *sched.Runtime) *world {
	w := &world{}
	w.lockA = NewLock(rt, "A")
	w.lockB = NewLock(rt, "B")
	w.rw = NewRWLock(rt, "rw")
	w.cond = NewCond(rt, "cv", w.lockA)
	w.sem = NewSemaphore(rt, "sem", 2)
	return w
}

func (wl *world) snapshot() string {
	return fmt.Sprintf("log=%v counter=%d shared=%d queue=%v reads=%v",
		wl.log, wl.counter, wl.shared, wl.queue, wl.reads)
}

// runScripts executes one script per worker on the given runtime and waits
// for completion. Any Stopped panic is swallowed (used in abort tests).
func runScripts(e env.Env, rt *sched.Runtime, wl *world, scripts []script) {
	g := env.NewGroup(e)
	g.Add(len(scripts))
	for i := range scripts {
		i := i
		e.Go(fmt.Sprintf("worker-%d", i), func() {
			defer g.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(Stopped); ok {
						return
					}
					panic(r)
				}
			}()
			scripts[i](rt.Worker(i), wl)
		})
	}
	g.Wait()
}

// recordRun records the scripts on a fresh runtime and returns the trace
// and the final world snapshot.
func recordRun(t *testing.T, cores, nWorkers int, scripts []script) (*trace.Trace, string, trace.Stats) {
	t.Helper()
	var tr *trace.Trace
	var snap string
	var stats trace.Stats
	e := sim.New(cores)
	e.Run(func() {
		rt := sched.NewRuntime(e, nWorkers, sched.ModeNative)
		rt.StartRecord(nil, 0)
		wl := newWorld(rt)
		runScripts(e, rt, wl, scripts)
		d := rt.Recorder().Collect()
		tr = trace.New(nWorkers)
		if d != nil {
			if err := tr.Apply(d); err != nil {
				t.Errorf("apply recorded delta: %v", err)
			}
		}
		snap = wl.snapshot()
		stats = tr.Stats()
	})
	return tr, snap, stats
}

// threadEvents returns thread t's events in clock order.
func threadEvents(tr *trace.Trace, t int) []trace.Event {
	var evs []trace.Event
	tr.EachEvent(t, 0, math.MaxInt32, func(ev trace.Event) { evs = append(evs, ev) })
	return evs
}

// wholeDelta returns all of a recorded (never garbage-collected) trace as
// one delta based at the empty cut.
func wholeDelta(tr *trace.Trace) *trace.Delta {
	n := tr.NumThreads()
	d := &trace.Delta{Base: make(trace.Cut, n), Threads: make([]trace.ThreadLog, n)}
	for t, end := range tr.Cut() {
		for c := int32(1); c <= end; c++ {
			id := trace.EventID{Thread: int32(t), Clock: c}
			d.Threads[t].Append(tr.Event(id), tr.In(id))
		}
	}
	for idx := uint64(0); idx < tr.ReqEnd(); idx++ {
		r, _ := tr.Req(idx)
		d.Reqs = append(d.Reqs, r)
	}
	return d
}

// replayRun replays tr on a fresh runtime and returns the final snapshot.
func replayRun(t *testing.T, cores, nWorkers int, tr *trace.Trace, scripts []script) string {
	t.Helper()
	var snap string
	e := sim.New(cores)
	e.Run(func() {
		rt := sched.NewRuntime(e, nWorkers, sched.ModeNative)
		rt.StartReplay(tr, nil)
		wl := newWorld(rt)
		runScripts(e, rt, wl, scripts)
		if !rt.Replayer().CaughtUp() {
			t.Errorf("replay did not consume the full trace: executed=%v backlog=%d",
				rt.Replayer().Executed(), rt.Replayer().Backlog())
		}
		snap = wl.snapshot()
	})
	return snap
}

func checkRecordReplay(t *testing.T, cores, nWorkers int, scripts []script) (*trace.Trace, trace.Stats) {
	t.Helper()
	tr, want, stats := recordRun(t, cores, nWorkers, scripts)
	if !tr.IsConsistent(tr.Cut()) {
		t.Fatalf("recorded trace is not consistent at rest")
	}
	for run := 0; run < 2; run++ {
		got := replayRun(t, cores, nWorkers, tr, scripts)
		if got != want {
			t.Fatalf("replay %d diverged:\nrecord: %s\nreplay: %s", run, want, got)
		}
	}
	return tr, stats
}

func TestLockOrderReplay(t *testing.T) {
	scripts := make([]script, 4)
	for i := range scripts {
		id := i
		scripts[i] = func(w *sched.Worker, wl *world) {
			for j := 0; j < 10; j++ {
				wl.lockA.Lock(w)
				wl.log = append(wl.log, fmt.Sprintf("%d.%d", id, j))
				wl.lockA.Unlock(w)
				w.Runtime().Env.Compute(time.Duration(id+1) * 100 * time.Microsecond)
			}
		}
	}
	tr, _ := checkRecordReplay(t, 4, 4, scripts)
	if tr.EventCount() == 0 {
		t.Fatal("no events recorded")
	}
}

func TestTwoLocksInterleaved(t *testing.T) {
	scripts := make([]script, 6)
	for i := range scripts {
		id := i
		scripts[i] = func(w *sched.Worker, wl *world) {
			for j := 0; j < 8; j++ {
				if (id+j)%2 == 0 {
					wl.lockA.Lock(w)
					wl.log = append(wl.log, fmt.Sprintf("a%d", id))
					wl.lockA.Unlock(w)
				} else {
					wl.lockB.Lock(w)
					wl.counter += id + 1
					wl.lockB.Unlock(w)
				}
				w.Runtime().Env.Compute(50 * time.Microsecond)
			}
		}
	}
	checkRecordReplay(t, 3, 6, scripts)
}

func TestTryLockFig4(t *testing.T) {
	// Thread 0 holds the lock for a long compute; threads 1 and 2 issue
	// TryLocks that fail while it is held (the paper's Fig. 4), recording
	// the partial-order edges. The recorded outcomes must replay exactly.
	scripts := []script{
		func(w *sched.Worker, wl *world) {
			wl.lockA.Lock(w)
			w.Runtime().Env.Compute(2 * time.Millisecond)
			wl.log = append(wl.log, "holder")
			wl.lockA.Unlock(w)
		},
		func(w *sched.Worker, wl *world) {
			w.Runtime().Env.Sleep(100 * time.Microsecond)
			for j := 0; j < 3; j++ {
				got := wl.lockA.TryLock(w)
				wl.lockB.Lock(w)
				wl.log = append(wl.log, fmt.Sprintf("t1=%v", got))
				wl.lockB.Unlock(w)
				if got {
					wl.lockA.Unlock(w)
				}
				w.Runtime().Env.Compute(300 * time.Microsecond)
			}
		},
		func(w *sched.Worker, wl *world) {
			w.Runtime().Env.Sleep(200 * time.Microsecond)
			for j := 0; j < 3; j++ {
				got := wl.lockA.TryLock(w)
				wl.lockB.Lock(w)
				wl.log = append(wl.log, fmt.Sprintf("t2=%v", got))
				wl.lockB.Unlock(w)
				if got {
					wl.lockA.Unlock(w)
				}
				w.Runtime().Env.Compute(300 * time.Microsecond)
			}
		},
	}
	tr, _ := checkRecordReplay(t, 3, 3, scripts)
	// The recording must contain failed TryLocks for the test to be
	// meaningful.
	fails := 0
	for th := 0; th < tr.NumThreads(); th++ {
		for _, ev := range threadEvents(tr, th) {
			if ev.Kind == trace.KindTryFail {
				fails++
			}
		}
	}
	if fails == 0 {
		t.Fatal("scenario recorded no failed TryLocks")
	}
}

func TestCondProducerConsumer(t *testing.T) {
	// One producer, two consumers over a cond-guarded queue. Which
	// consumer gets which item is nondeterministic — the trace must pin it.
	const items = 12
	producer := func(w *sched.Worker, wl *world) {
		for j := 1; j <= items; j++ {
			wl.lockA.Lock(w)
			wl.queue = append(wl.queue, j)
			wl.cond.Signal(w)
			wl.lockA.Unlock(w)
			w.Runtime().Env.Compute(100 * time.Microsecond)
		}
	}
	consumer := func(id int) script {
		return func(w *sched.Worker, wl *world) {
			for taken := 0; taken < items/2; taken++ {
				wl.lockA.Lock(w)
				for len(wl.queue) == 0 {
					wl.cond.Wait(w)
				}
				v := wl.queue[0]
				wl.queue = wl.queue[1:]
				wl.log = append(wl.log, fmt.Sprintf("c%d<-%d", id, v))
				wl.lockA.Unlock(w)
				w.Runtime().Env.Compute(50 * time.Microsecond)
			}
		}
	}
	checkRecordReplay(t, 3, 3, []script{producer, consumer(1), consumer(2)})
}

func TestCondBroadcastReplay(t *testing.T) {
	release := func(w *sched.Worker, wl *world) {
		w.Runtime().Env.Sleep(time.Millisecond)
		wl.lockA.Lock(w)
		wl.counter = 100
		wl.cond.Broadcast(w)
		wl.lockA.Unlock(w)
	}
	waiter := func(id int) script {
		return func(w *sched.Worker, wl *world) {
			wl.lockA.Lock(w)
			for wl.counter == 0 {
				wl.cond.Wait(w)
			}
			wl.log = append(wl.log, fmt.Sprintf("w%d", id))
			wl.lockA.Unlock(w)
		}
	}
	checkRecordReplay(t, 4, 4, []script{release, waiter(1), waiter(2), waiter(3)})
}

func TestRWLockReplay(t *testing.T) {
	writer := func(w *sched.Worker, wl *world) {
		for j := 0; j < 6; j++ {
			wl.rw.Lock(w)
			wl.shared++
			wl.rw.Unlock(w)
			w.Runtime().Env.Compute(200 * time.Microsecond)
		}
	}
	reader := func(w *sched.Worker, wl *world) {
		for j := 0; j < 6; j++ {
			wl.rw.RLock(w)
			v := wl.shared
			wl.rw.RUnlock(w)
			wl.lockB.Lock(w)
			wl.reads = append(wl.reads, v)
			wl.lockB.Unlock(w)
			w.Runtime().Env.Compute(150 * time.Microsecond)
		}
	}
	checkRecordReplay(t, 4, 4, []script{writer, reader, reader, reader})
}

func TestSemaphoreReplay(t *testing.T) {
	user := func(id int) script {
		return func(w *sched.Worker, wl *world) {
			for j := 0; j < 5; j++ {
				wl.sem.Acquire(w)
				wl.lockB.Lock(w)
				wl.counter++
				if wl.counter > 2 {
					wl.log = append(wl.log, "OVERFLOW")
				}
				wl.lockB.Unlock(w)
				w.Runtime().Env.Compute(100 * time.Microsecond)
				wl.lockB.Lock(w)
				wl.counter--
				wl.lockB.Unlock(w)
				wl.sem.Release(w)
			}
		}
	}
	tr, _ := checkRecordReplay(t, 4, 4, []script{user(0), user(1), user(2), user(3)})
	for th := 0; th < tr.NumThreads(); th++ {
		for _, ev := range threadEvents(tr, th) {
			if ev.Kind == trace.KindSemAcq {
				return
			}
		}
	}
	t.Fatal("no semaphore events recorded")
}

func TestValueReplay(t *testing.T) {
	// Nondeterministic values recorded on the primary must be returned
	// verbatim on replay without re-running compute.
	calls := 0
	scr := func(w *sched.Worker, wl *world) {
		for j := 0; j < 5; j++ {
			v := Value(w, 7, func() uint64 {
				calls++
				return uint64(1000 + calls)
			})
			wl.lockA.Lock(w)
			wl.log = append(wl.log, fmt.Sprintf("v=%d", v))
			wl.lockA.Unlock(w)
		}
	}
	tr, want, _ := recordRun(t, 2, 2, []script{scr, scr})
	recordCalls := calls
	got := replayRun(t, 2, 2, tr, []script{scr, scr})
	if got != want {
		t.Fatalf("value replay diverged:\n%s\n%s", want, got)
	}
	if calls != recordCalls {
		t.Errorf("compute ran %d extra times during replay", calls-recordCalls)
	}
}

func TestNativeExecNotRecorded(t *testing.T) {
	scr := func(w *sched.Worker, wl *world) {
		w.Native(func() {
			wl.lockA.Lock(w)
			wl.counter++
			wl.lockA.Unlock(w)
		})
		wl.lockB.Lock(w)
		wl.log = append(wl.log, "x")
		wl.lockB.Unlock(w)
	}
	tr, _, _ := recordRun(t, 2, 2, []script{scr, scr})
	for th := 0; th < tr.NumThreads(); th++ {
		for _, ev := range threadEvents(tr, th) {
			if ev.Res == 1 { // lockA is the first registered resource
				t.Fatalf("NativeExec scope recorded event %v on lock A", ev.Kind)
			}
		}
	}
}

func TestEdgePruningReducesEdges(t *testing.T) {
	// A ping-pong pattern on two locks: most cross-thread edges are implied
	// transitively, so pruning must remove a large fraction (§4.2 reports
	// 58-99%).
	scripts := make([]script, 2)
	for i := range scripts {
		scripts[i] = func(w *sched.Worker, wl *world) {
			for j := 0; j < 50; j++ {
				wl.lockA.Lock(w)
				wl.lockB.Lock(w)
				wl.counter++
				wl.lockB.Unlock(w)
				wl.lockA.Unlock(w)
			}
		}
	}
	tr, _ := checkRecordReplay(t, 2, 2, scripts)
	events := tr.EventCount()
	edges := tr.EdgeCount()
	// Unpruned, every acquire would carry an edge (~half the events).
	// With pruning, the lockB chain inside the lockA critical section is
	// implied by lockA's chain, halving the edges.
	if edges >= events/3 {
		t.Errorf("pruning ineffective: %d edges for %d events", edges, events)
	}
}

func TestDivergenceDetectedOnTamperedTrace(t *testing.T) {
	scripts := make([]script, 2)
	for i := range scripts {
		scripts[i] = func(w *sched.Worker, wl *world) {
			for j := 0; j < 3; j++ {
				wl.lockA.Lock(w)
				wl.counter++
				wl.lockA.Unlock(w)
			}
		}
	}
	recorded, _, _ := recordRun(t, 2, 2, scripts)
	// Corrupt a version number: replay must detect the mismatch.
	d := wholeDelta(recorded)
	tampered := false
	for t0 := range d.Threads {
		for i := range d.Threads[t0].Events {
			ev := &d.Threads[t0].Events[i]
			if ev.Kind == trace.KindLockAcq && !tampered {
				ev.Arg += 7
				tampered = true
			}
		}
	}
	if !tampered {
		t.Fatal("no event to tamper with")
	}
	tr := trace.New(2)
	if err := tr.Apply(d); err != nil {
		t.Fatal(err)
	}
	e := sim.New(2)
	var div *sched.DivergenceError
	e.Run(func() {
		rt := sched.NewRuntime(e, 2, sched.ModeNative)
		rt.StartReplay(tr, nil)
		wl := newWorld(rt)
		g := env.NewGroup(e)
		g.Add(2)
		for i := 0; i < 2; i++ {
			i := i
			e.Go("w", func() {
				defer g.Done()
				defer func() {
					if r := recover(); r != nil {
						if d, ok := r.(*sched.DivergenceError); ok {
							div = d
							rt.Replayer().Abort()
							return
						}
						if _, ok := r.(Stopped); ok {
							return
						}
						panic(r)
					}
				}()
				scripts[i](rt.Worker(i), wl)
			})
		}
		g.Wait()
	})
	if div == nil {
		t.Fatal("tampered trace replayed without divergence")
	}
}

func TestPromotionMidStream(t *testing.T) {
	// Record a two-phase run on A. Deliver only phase 1 to B; while B's
	// workers are blocked waiting for phase 2, promote B (StartRecord +
	// Abort). The workers must switch to record mode mid-script, finish
	// phase 2 live, and B must end in a state consistent with running the
	// full scripts — with phase 2 freshly recorded by B.
	const perPhase = 5
	phase := func(w *sched.Worker, wl *world, id int, n int) {
		for j := 0; j < n; j++ {
			wl.lockA.Lock(w)
			wl.log = append(wl.log, fmt.Sprintf("%d", id))
			wl.lockA.Unlock(w)
		}
	}
	scripts := make([]script, 3)
	for i := range scripts {
		id := i
		scripts[i] = func(w *sched.Worker, wl *world) {
			phase(w, wl, id, perPhase)
			phase(w, wl, id, perPhase)
		}
	}

	// Record phase 1 and phase 2 as separate deltas on A.
	var d1 *trace.Delta
	eA := sim.New(3)
	eA.Run(func() {
		rt := sched.NewRuntime(eA, 3, sched.ModeNative)
		rt.StartRecord(nil, 0)
		wl := newWorld(rt)
		g := env.NewGroup(eA)
		g.Add(3)
		barrier := env.NewGroup(eA)
		barrier.Add(3)
		for i := 0; i < 3; i++ {
			i := i
			eA.Go("w", func() {
				defer g.Done()
				phase(rt.Worker(i), wl, i, perPhase)
				barrier.Done()
				barrier.Wait()
				phase(rt.Worker(i), wl, i, perPhase)
			})
		}
		barrier.Wait()
		d1 = rt.Recorder().Collect()
		g.Wait()
	})
	if d1 == nil {
		t.Fatal("phase 1 delta empty")
	}

	// B replays phase 1 only, then gets promoted.
	eB := sim.New(3)
	var logLen int
	var newEvents int
	eB.Run(func() {
		rt := sched.NewRuntime(eB, 3, sched.ModeNative)
		tr := trace.New(3)
		if err := tr.Apply(d1); err != nil {
			t.Errorf("apply d1: %v", err)
			return
		}
		rt.StartReplay(tr, nil)
		wl := newWorld(rt)
		g := env.NewGroup(eB)
		g.Add(3)
		for i := 0; i < 3; i++ {
			i := i
			eB.Go("w", func() {
				defer g.Done()
				scripts[i](rt.Worker(i), wl)
			})
		}
		rep := rt.Replayer()
		if !rep.WaitCaughtUp() {
			t.Error("replay never caught up to phase 1")
			return
		}
		// Promote: continue recording from the replayed cut.
		cut := rep.Executed()
		rt.StartRecord(cut, 0)
		rep.Abort()
		g.Wait()
		logLen = len(wl.log)
		d2 := rt.Recorder().Collect()
		if d2 != nil {
			newEvents = d2.EventCount()
			if !d2.Base.Equal(cut) {
				t.Errorf("post-promotion delta base %v, want %v", d2.Base, cut)
			}
		}
	})
	if want := 3 * 2 * perPhase; logLen != want {
		t.Errorf("log has %d entries after promotion, want %d", logLen, want)
	}
	if newEvents == 0 {
		t.Error("promotion recorded no new events")
	}
}

func TestHybridNativeReaderDoesNotPolluteTrace(t *testing.T) {
	// A fixed-native worker (read pool) locks and unlocks concurrently
	// with recorded workers; the trace must contain only the recorded
	// workers' events and still replay to the same state.
	scripts := make([]script, 2)
	for i := range scripts {
		scripts[i] = func(w *sched.Worker, wl *world) {
			for j := 0; j < 10; j++ {
				wl.lockA.Lock(w)
				wl.counter++
				wl.lockA.Unlock(w)
				w.Runtime().Env.Compute(100 * time.Microsecond)
			}
		}
	}
	var tr *trace.Trace
	var want string
	observed := 0
	e := sim.New(3)
	e.Run(func() {
		rt := sched.NewRuntime(e, 2, sched.ModeNative)
		rt.StartRecord(nil, 0)
		wl := newWorld(rt)
		stop := false // plain flag: the sim serializes tasks, no data race
		reader := rt.NativeWorker()
		g := env.NewGroup(e)
		g.Add(1)
		e.Go("reader", func() {
			defer g.Done()
			for !stop {
				wl.lockA.Lock(reader)
				observed += wl.counter // native read under the real lock
				wl.lockA.Unlock(reader)
				e.Sleep(50 * time.Microsecond)
			}
		})
		runScripts(e, rt, wl, scripts)
		stop = true
		g.Wait()
		d := rt.Recorder().Collect()
		tr = trace.New(2)
		if err := tr.Apply(d); err != nil {
			t.Errorf("apply: %v", err)
		}
		want = wl.snapshot()
	})
	if observed == 0 {
		t.Fatal("native reader never observed anything; scenario vacuous")
	}
	got := replayRun(t, 3, 2, tr, scripts)
	if got != want {
		t.Fatalf("hybrid record/replay diverged:\nrecord: %s\nreplay: %s", want, got)
	}
}
