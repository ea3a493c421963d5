package sched

import (
	"errors"
	"testing"
	"time"

	"rex/internal/env"
	"rex/internal/sim"
	"rex/internal/trace"
)

func TestRecorderCollectsDeltasInOrder(t *testing.T) {
	e := sim.New(1)
	e.Run(func() {
		rt := NewRuntime(e, 2, ModeNative)
		rt.StartRecord(nil, 0)
		w0, w1 := rt.Worker(0), rt.Worker(1)
		rec := rt.Recorder()

		idx := rec.AddReq(trace.Req{Client: 1, Seq: 1, Body: []byte("a")})
		if idx != 0 {
			t.Fatalf("first req index = %d", idx)
		}
		w0.Record(trace.Event{Kind: trace.KindReqBegin, Res: uint32(idx)}, nil)
		d1 := rec.Collect()
		if d1.EventCount() != 1 || len(d1.Reqs) != 1 || !d1.Base.Equal(trace.Cut{0, 0}) {
			t.Fatalf("delta1 = %+v", d1)
		}
		w0.Record(trace.Event{Kind: trace.KindReqEnd, Res: uint32(idx)}, nil)
		w1.Record(trace.Event{Kind: trace.KindLockAcq, Res: 5, Arg: 1}, []trace.EventID{{Thread: 0, Clock: 1}})
		d2 := rec.Collect()
		if !d2.Base.Equal(trace.Cut{1, 0}) || d2.ReqBase != 1 {
			t.Fatalf("delta2 base = %v reqbase = %d", d2.Base, d2.ReqBase)
		}
		if d2.EventCount() != 2 || d2.EdgeCount() != 1 {
			t.Fatalf("delta2 events=%d edges=%d", d2.EventCount(), d2.EdgeCount())
		}
		// Deltas chain onto a trace.
		tr := trace.New(2)
		if err := tr.Apply(d1); err != nil {
			t.Fatal(err)
		}
		if err := tr.Apply(d2); err != nil {
			t.Fatal(err)
		}
		if tr.EventCount() != 3 {
			t.Fatalf("trace events = %d", tr.EventCount())
		}
		// An empty collect returns an empty (but valid) delta.
		d3 := rec.Collect()
		if !d3.Empty() {
			t.Fatalf("expected empty delta, got %+v", d3)
		}
	})
}

func TestRecorderStartFromCut(t *testing.T) {
	e := sim.New(1)
	e.Run(func() {
		rt := NewRuntime(e, 2, ModeNative)
		rt.StartRecord(trace.Cut{5, 3}, 7)
		if got := rt.Worker(0).Clock(); got != 5 {
			t.Errorf("worker 0 clock = %d, want 5", got)
		}
		idx := rt.Recorder().AddReq(trace.Req{})
		if idx != 7 {
			t.Errorf("req index = %d, want 7", idx)
		}
		rt.Worker(0).Record(trace.Event{Kind: trace.KindReqBegin, Res: uint32(idx)}, nil)
		d := rt.Recorder().Collect()
		if !d.Base.Equal(trace.Cut{5, 3}) || d.ReqBase != 7 {
			t.Errorf("delta base=%v reqBase=%d", d.Base, d.ReqBase)
		}
	})
}

func mustReplayer(t *testing.T, e env.Env, tr *trace.Trace, base trace.Cut) *Replayer {
	t.Helper()
	rep, err := NewReplayer(e, tr, base)
	if err != nil {
		t.Fatalf("NewReplayer: %v", err)
	}
	return rep
}

// buildTwoThreadTrace: t0: A(1) B(2); t1: C(1) depends on (0,2).
func buildTwoThreadTrace() *trace.Trace {
	d := &trace.Delta{Base: trace.Cut{0, 0}, Threads: make([]trace.ThreadLog, 2)}
	d.Threads[0].Append(trace.Event{Kind: trace.KindLockAcq, Res: 1, Arg: 1}, nil)
	d.Threads[0].Append(trace.Event{Kind: trace.KindLockRel, Res: 1, Arg: 2}, nil)
	d.Threads[1].Append(trace.Event{Kind: trace.KindLockAcq, Res: 1, Arg: 3}, []trace.EventID{{Thread: 0, Clock: 2}})
	return committedTrace(d)
}

// committedTrace returns a fresh trace holding d, applied the way a
// committed delta is.
func committedTrace(d *trace.Delta) *trace.Trace {
	tr := trace.New(len(d.Threads))
	if err := tr.Apply(d); err != nil {
		panic(err)
	}
	return tr
}

func TestReplayerWaitSourcesBlocksUntilCommit(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		rep := mustReplayer(t, e, buildTwoThreadTrace(), nil)
		order := []string{}
		g := env.NewGroup(e)
		g.Add(2)
		e.Go("t1", func() {
			defer g.Done()
			ev, id, ok := rep.Next(1)
			if !ok || ev.Kind != trace.KindLockAcq {
				t.Errorf("t1 Next = %v %v %v", ev, id, ok)
				return
			}
			if !rep.WaitSources(rep.In(id)) {
				t.Error("t1 aborted")
				return
			}
			order = append(order, "t1")
			rep.Commit(1)
		})
		e.Go("t0", func() {
			defer g.Done()
			for i := 0; i < 2; i++ {
				_, id, ok := rep.Next(0)
				if !ok {
					t.Error("t0 aborted")
					return
				}
				rep.WaitSources(rep.In(id))
				e.Sleep(time.Millisecond) // ensure t1 is already waiting
				order = append(order, "t0")
				rep.Commit(0)
			}
		})
		g.Wait()
		if len(order) != 3 || order[2] != "t1" {
			t.Errorf("execution order = %v, want t1 last", order)
		}
		_, waited := rep.Stats()
		if waited != 1 {
			t.Errorf("waited events = %d, want 1", waited)
		}
		if !rep.CaughtUp() {
			t.Error("not caught up after full replay")
		}
	})
}

func TestReplayerGatesBeyondLimit(t *testing.T) {
	// An event whose causal source is missing from the trace must be held
	// back by the last-consistent-cut gate.
	e := sim.New(2)
	e.Run(func() {
		d0 := &trace.Delta{Base: trace.Cut{0, 0}, Threads: make([]trace.ThreadLog, 2)}
		d0.Threads[1].Append(trace.Event{Kind: trace.KindLockAcq, Res: 1}, []trace.EventID{{Thread: 0, Clock: 1}})
		tr := committedTrace(d0)
		rep := mustReplayer(t, e, tr, nil)
		if limit := rep.Limit(); limit[1] != 0 {
			t.Fatalf("limit = %v, want thread 1 gated at 0", limit)
		}
		got := false
		e.Go("t1", func() {
			_, _, ok := rep.Next(1)
			got = ok
		})
		e.Sleep(time.Millisecond)
		if got {
			t.Fatal("gated event was released")
		}
		// Extending the trace with the missing source releases it.
		d := &trace.Delta{Base: trace.Cut{0, 1}, Threads: make([]trace.ThreadLog, 2)}
		d.Threads[0].Append(trace.Event{Kind: trace.KindLockRel, Res: 1}, nil)
		if err := rep.Extend(d); err != nil {
			t.Fatal(err)
		}
		e.Go("t0", func() {
			rep.Next(0)
			rep.Commit(0)
		})
		e.Sleep(time.Millisecond)
		if !got {
			t.Fatal("event not released after its source arrived and executed")
		}
	})
}

func TestReplayerMarkGatingAndCompletion(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		tr := buildTwoThreadTrace()
		tr.Marks = append(tr.Marks, trace.Mark{ID: 9, Cut: trace.Cut{2, 1}})
		rep := mustReplayer(t, e, tr, nil)
		executedAll := false
		e.Go("workers", func() {
			for i := 0; i < 2; i++ {
				_, id, _ := rep.Next(0)
				rep.WaitSources(rep.In(id))
				rep.Commit(0)
			}
			_, id, _ := rep.Next(1)
			rep.WaitSources(rep.In(id))
			rep.Commit(1)
			executedAll = true
		})
		e.Sleep(time.Millisecond)
		// Everything is inside the mark's cut here, so replay runs to the
		// cut; add one more event beyond the cut and check it gates.
		d := &trace.Delta{Base: trace.Cut{2, 1}, Threads: make([]trace.ThreadLog, 2)}
		d.Threads[0].Append(trace.Event{Kind: trace.KindLockAcq, Res: 1, Arg: 4}, nil)
		if err := rep.Extend(d); err != nil {
			t.Fatal(err)
		}
		released := false
		e.Go("t0-beyond", func() {
			_, _, ok := rep.Next(0)
			released = ok
		})
		e.Sleep(time.Millisecond)
		if !executedAll {
			t.Fatal("events inside the mark cut did not execute")
		}
		if released {
			t.Fatal("event beyond a pending mark was released")
		}
		m, ok := rep.PendingMark()
		if !ok || m.ID != 9 {
			t.Fatalf("PendingMark = %v %v", m, ok)
		}
		if !rep.WaitMarkReached(m) {
			t.Fatal("mark never reached")
		}
		rep.CompleteMark(9)
		e.Sleep(time.Millisecond)
		if !released {
			t.Fatal("event not released after mark completion")
		}
	})
}

func TestReplayerAbortUnblocksEverything(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		tr := trace.New(1)
		rep := mustReplayer(t, e, tr, nil)
		results := e.NewChan(0)
		e.Go("w", func() {
			_, _, ok := rep.Next(0) // blocks: empty trace
			results.Send(ok)
		})
		e.Sleep(time.Millisecond)
		rep.Abort()
		v, _ := results.Recv()
		if v.(bool) {
			t.Error("Next returned ok after abort")
		}
		if rep.WaitCaughtUp() {
			t.Error("WaitCaughtUp reported success after abort")
		}
	})
}

func TestExtendRebaseBelowLimitAbortsNotPanics(t *testing.T) {
	// A rebasing delta that cuts below the release frontier (the replica's
	// workers may already have executed into the discarded region) must
	// abort the replayer with a typed resync error — this is the exact
	// shape that used to panic in ConsistentCut under promote/demote churn.
	e := sim.New(2)
	e.Run(func() {
		tr := buildTwoThreadTrace() // frontier [2 1], fully consistent
		rep := mustReplayer(t, e, tr, nil)
		d := &trace.Delta{Rebase: trace.Cut{1, 0}, Base: trace.Cut{1, 0}, Threads: make([]trace.ThreadLog, 2)}
		err := rep.Extend(d)
		if !errors.Is(err, trace.ErrCutBeyondTrace) {
			t.Fatalf("Extend err = %v, want ErrCutBeyondTrace", err)
		}
		if !rep.Aborted() {
			t.Fatal("replayer not aborted after desynchronized rebase")
		}
		if _, _, ok := rep.Next(0); ok {
			t.Fatal("Next released an event on an aborted replayer")
		}
		if err := rep.Extend(d); !errors.Is(err, ErrReplayerAborted) {
			t.Fatalf("Extend on aborted replayer err = %v, want ErrReplayerAborted", err)
		}
	})
}

func TestExtendRebaseBeyondTraceAborts(t *testing.T) {
	// Rebase beyond the local frontier: the replica restored from an old
	// checkpoint and the stream has moved on. Must be resyncable.
	e := sim.New(2)
	e.Run(func() {
		tr := trace.New(2)
		rep := mustReplayer(t, e, tr, nil)
		d := &trace.Delta{Rebase: trace.Cut{5, 5}, Base: trace.Cut{5, 5}, Threads: make([]trace.ThreadLog, 2)}
		if err := rep.Extend(d); !errors.Is(err, trace.ErrCutBeyondTrace) {
			t.Fatalf("Extend err = %v, want ErrCutBeyondTrace", err)
		}
		if !rep.Aborted() {
			t.Fatal("replayer not aborted")
		}
	})
}

func TestExtendLagQueueSaturationCounted(t *testing.T) {
	// When replay lags more than maxLagQ deltas behind the commit stream,
	// further watermarks are dropped — that loss must be counted, not
	// silent.
	e := sim.New(1)
	e.Run(func() {
		tr := trace.New(1)
		rep := mustReplayer(t, e, tr, nil)
		ob := NewReplayObs()
		rep.ob = ob
		base := int32(0)
		for i := 0; i < maxLagQ+7; i++ {
			d := &trace.Delta{Base: trace.Cut{base}, Threads: make([]trace.ThreadLog, 1)}
			d.Threads[0].Append(trace.Event{Kind: trace.KindLockAcq, Res: 1}, nil)
			if err := rep.Extend(d); err != nil {
				t.Fatalf("Extend %d: %v", i, err)
			}
			base++
		}
		if got := ob.LagDropped.Value(); got != 7 {
			t.Fatalf("LagDropped = %d, want 7", got)
		}
	})
}

func TestLiveReqs(t *testing.T) {
	e := sim.New(1)
	e.Run(func() {
		d := &trace.Delta{Base: trace.Cut{0}, Threads: make([]trace.ThreadLog, 1)}
		d.Reqs = []trace.Req{{Client: 1, Seq: 1}, {Client: 2, Seq: 1}, {Client: 3, Seq: 1}}
		d.Threads[0].Append(trace.Event{Kind: trace.KindReqBegin, Res: 0}, nil)
		d.Threads[0].Append(trace.Event{Kind: trace.KindReqEnd, Res: 0}, nil)
		d.Threads[0].Append(trace.Event{Kind: trace.KindReqBegin, Res: 1}, nil)
		rep := mustReplayer(t, e, committedTrace(d), nil)
		// Cut covers the first request's end only: reqs 1 (begun, not
		// ended) and 2 (never begun) are live.
		live := rep.LiveReqs(trace.Cut{2})
		if len(live) != 2 || live[0].Idx != 1 || live[1].Idx != 2 {
			t.Errorf("LiveReqs = %+v", live)
		}
	})
}

func TestNativeWorkerMode(t *testing.T) {
	e := sim.New(1)
	e.Run(func() {
		rt := NewRuntime(e, 1, ModeNative)
		rt.StartRecord(nil, 0)
		w := rt.Worker(0)
		if w.Mode() != ModeRecord {
			t.Errorf("worker mode = %v, want record", w.Mode())
		}
		nw := rt.NativeWorker()
		if nw.Mode() != ModeNative {
			t.Errorf("native worker mode = %v", nw.Mode())
		}
		w.Native(func() {
			if w.Mode() != ModeNative {
				t.Error("mode inside Native scope not native")
			}
		})
		if w.Mode() != ModeRecord {
			t.Error("mode after Native scope not record")
		}
	})
}

func TestVersionSlotsSurviveRegistryGrowth(t *testing.T) {
	e := sim.New(1)
	e.Run(func() {
		testVersionSlots(t, e)
	})
}

func testVersionSlots(t *testing.T, e *sim.Env) {
	rt := NewRuntime(e, 1, ModeNative)
	id1 := rt.RegisterResource()
	p1 := rt.Version(id1)
	*p1 = 42
	// Register many more resources: the slice must not invalidate p1.
	for i := 0; i < 1000; i++ {
		rt.RegisterResource()
	}
	if *rt.Version(id1) != 42 {
		t.Error("version slot lost after registry growth")
	}
	*p1 = 43
	snap := rt.VersionsSnapshot()
	if snap[id1] != 43 {
		t.Errorf("snapshot[%d] = %d, want 43", id1, snap[id1])
	}
	snap[id1] = 99
	rt.RestoreVersions(snap)
	if *p1 != 99 {
		t.Errorf("restore did not reach the wrapper's pointer: %d", *p1)
	}
}

func TestPruneEdgeRespectsDisableFlag(t *testing.T) {
	e := sim.New(1)
	e.Run(func() { testPruneEdgeFlag(t, e) })
}

func testPruneEdgeFlag(t *testing.T, e *sim.Env) {
	rt := NewRuntime(e, 2, ModeNative)
	rt.StartRecord(nil, 0)
	w := rt.Worker(0)
	src := trace.EventID{Thread: 1, Clock: 1}
	if w.PruneEdge(src) {
		t.Fatal("first observation pruned")
	}
	if !w.PruneEdge(src) {
		t.Fatal("second observation not pruned")
	}
	rt2 := NewRuntime(e, 2, ModeNative)
	rt2.DisablePruning = true
	rt2.StartRecord(nil, 0)
	w2 := rt2.Worker(0)
	if w2.PruneEdge(src) {
		t.Fatal("pruned on first observation with pruning disabled")
	}
	if w2.PruneEdge(src) {
		t.Fatal("pruned with pruning disabled")
	}
}

func TestDivergenceErrorMessage(t *testing.T) {
	err := &DivergenceError{
		Thread: 3, Clock: 17,
		Expected: trace.Event{Kind: trace.KindLockAcq, Res: 4, Arg: 9},
		GotKind:  trace.KindLockRel, GotRes: 4, GotArg: 8,
		Resource: "shard-4", Detail: "test",
	}
	msg := err.Error()
	for _, want := range []string{"thread 3", "clock 17", "lock-acq", "lock-rel", "shard-4"} {
		if !contains(msg, want) {
			t.Errorf("error message missing %q: %s", want, msg)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestWaitExecutedAtLeast(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		rep := mustReplayer(t, e, buildTwoThreadTrace(), nil)
		// Fast path: the zero cut is already executed.
		if !rep.WaitExecutedAtLeast(nil, 0) {
			t.Fatal("zero cut should be satisfied immediately")
		}
		// Timeout path: nothing executes, the wait must give up at the
		// deadline rather than block forever.
		t0 := e.Now()
		if rep.WaitExecutedAtLeast(trace.Cut{2, 1}, 50*time.Millisecond) {
			t.Fatal("unexecuted cut reported reached")
		}
		if d := e.Now() - t0; d < 50*time.Millisecond {
			t.Fatalf("timed out after %v, want >= 50ms", d)
		}
		// Progress path: a waiter is released as soon as replay covers the
		// cut, well before its timeout.
		done := e.NewChan(1)
		e.Go("waiter", func() {
			done.Send(rep.WaitExecutedAtLeast(trace.Cut{2, 1}, 5*time.Second))
		})
		e.Go("executor", func() {
			for _, tid := range []int32{0, 0, 1} {
				_, id, ok := rep.Next(tid)
				if !ok {
					t.Error("replayer aborted")
					return
				}
				rep.WaitSources(rep.In(id))
				rep.Commit(tid)
			}
		})
		v, _ := done.Recv()
		if !v.(bool) {
			t.Fatal("waiter not released by progress")
		}
		// Aborted replayers fail the wait.
		rep.Abort()
		if rep.WaitExecutedAtLeast(trace.Cut{9, 9}, time.Millisecond) {
			t.Fatal("aborted replayer satisfied a wait")
		}
	})
}

// TestCollectIntoMatchesCollect feeds two recorders the same work and
// checks that collecting into one reused scratch delta yields, cycle by
// cycle, the bytes a fresh Collect does, including cycles that record
// nothing on some threads.
func TestCollectIntoMatchesCollect(t *testing.T) {
	e := env.NewReal()
	fresh := NewRecorder(e, 3, trace.Cut{2, 0, 5}, 4)
	reused := NewRecorder(e, 3, trace.Cut{2, 0, 5}, 4)
	var scratch trace.Delta
	for cycle := 0; cycle < 20; cycle++ {
		for _, rec := range []*Recorder{fresh, reused} {
			for i := 0; i < cycle%4; i++ {
				idx := rec.AddReq(trace.Req{Client: uint64(cycle), Seq: uint64(i), Body: []byte{byte(cycle), byte(i)}})
				th := int32((cycle + i) % 3)
				rec.Append(th, trace.Event{Kind: trace.KindReqBegin, Res: uint32(idx)}, nil)
				rec.Append(th, trace.Event{Kind: trace.KindLockAcq, Res: 9, Arg: uint64(i)}, []trace.EventID{{Thread: (th + 1) % 3, Clock: 1}})
			}
			if cycle%5 == 0 {
				rec.AddMark(trace.Mark{ID: uint64(cycle), Cut: trace.Cut{1, 2, 3}})
			}
		}
		want := fresh.Collect().EncodeBytes()
		reused.CollectInto(&scratch)
		if got := scratch.EncodeBytes(); string(got) != string(want) {
			t.Fatalf("cycle %d: CollectInto encodes %x, Collect %x", cycle, got, want)
		}
		clear(scratch.Reqs)
	}
}

// TestExtendWakesOnlyReleasedThreads pins the replayer's wake-ups: an
// Extend that releases events on thread 0 only leaves thread 1's Next
// asleep, while completing a mark and aborting wake every thread.
func TestExtendWakesOnlyReleasedThreads(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		tr := trace.New(2)
		tr.Marks = append(tr.Marks, trace.Mark{ID: 7, Cut: trace.Cut{1, 0}})
		rep := mustReplayer(t, e, tr, nil)
		got0, got1 := e.NewChan(2), e.NewChan(1)
		e.Go("t0", func() {
			for i := 0; i < 2; i++ {
				_, id, ok := rep.Next(0)
				got0.Send(ok && id.Clock == int32(i+1))
				rep.Commit(0)
			}
		})
		e.Go("t1", func() {
			_, _, ok := rep.Next(1)
			got1.Send(ok)
		})
		e.Sleep(time.Millisecond)
		if w0, w1 := rep.NextWaits(0), rep.NextWaits(1); w0 != 1 || w1 != 1 {
			t.Fatalf("sleeps before Extend: thread 0 %d, thread 1 %d; want 1 and 1", w0, w1)
		}

		d := &trace.Delta{Base: trace.Cut{0, 0}, Threads: make([]trace.ThreadLog, 2)}
		d.Threads[0].Append(trace.Event{Kind: trace.KindLockAcq, Res: 1}, nil)
		d.Threads[0].Append(trace.Event{Kind: trace.KindLockRel, Res: 1}, nil)
		if err := rep.Extend(d); err != nil {
			t.Fatal(err)
		}
		e.Sleep(time.Millisecond)
		if v, _ := got0.Recv(); !v.(bool) {
			t.Fatal("thread 0 did not get its first event")
		}
		// Thread 0's second event lies beyond the pending mark: it sleeps
		// again. Thread 1 had nothing released and was never woken.
		if w0, w1 := rep.NextWaits(0), rep.NextWaits(1); w0 != 2 || w1 != 1 {
			t.Fatalf("sleeps after Extend: thread 0 %d, thread 1 %d; want 2 and 1", w0, w1)
		}

		rep.CompleteMark(7)
		e.Sleep(time.Millisecond)
		if v, _ := got0.Recv(); !v.(bool) {
			t.Fatal("thread 0 not released past the completed mark")
		}
		if w1 := rep.NextWaits(1); w1 != 2 {
			t.Fatalf("thread 1 sleeps after CompleteMark = %d, want 2 (woken, nothing to run)", w1)
		}

		rep.Abort()
		if v, _ := got1.Recv(); v.(bool) {
			t.Fatal("thread 1's Next returned an event after abort")
		}
	})
}
