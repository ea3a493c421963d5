package rexsync

import (
	"testing"
	"time"

	"rex/internal/env"
	"rex/internal/sched"
	"rex/internal/sim"
	"rex/internal/trace"
)

// TestUnguardedRaceCausesDivergence demonstrates §5.1 deterministically: a
// worker branches on an UNGUARDED shared flag (a data race Rex cannot
// capture). Record and replay run under different schedules (compute time
// is not traced — on a real secondary the schedule always differs), the
// racy read resolves differently, the worker takes a different lock than
// recorded, and the wrapper reports a DivergenceError naming the resource.
func TestUnguardedRaceCausesDivergence(t *testing.T) {
	type world struct {
		flag  int // UNGUARDED — the bug under test
		lockA *Lock
		lockB *Lock
	}
	// reader's compute before the racy read: short at record (reads flag
	// before the writer sets it), long at replay (reads it after).
	run := func(readerDelay time.Duration, tr *trace.Trace) (*trace.Trace, *sched.DivergenceError) {
		var out *trace.Trace
		var div *sched.DivergenceError
		e := sim.New(2)
		e.Run(func() {
			rt := sched.NewRuntime(e, 2, sched.ModeNative)
			wl := &world{}
			wl.lockA = NewLock(rt, "guarded-by-A")
			wl.lockB = NewLock(rt, "guarded-by-B")
			if tr == nil {
				rt.StartRecord(nil, 0)
			} else {
				rt.StartReplay(tr, nil)
			}
			g := env.NewGroup(e)
			g.Add(2)
			e.Go("writer", func() {
				defer g.Done()
				defer swallowStopped()
				w := rt.Worker(0)
				e.Compute(100 * time.Microsecond)
				wl.flag = 1 // racy write
				wl.lockA.Lock(w)
				wl.lockA.Unlock(w)
			})
			e.Go("reader", func() {
				defer g.Done()
				defer func() {
					if r := recover(); r != nil {
						if d, ok := r.(*sched.DivergenceError); ok {
							div = d
							if rep := rt.Replayer(); rep != nil {
								rep.Abort()
							}
							return
						}
						if _, ok := r.(Stopped); ok {
							return
						}
						panic(r)
					}
				}()
				w := rt.Worker(1)
				e.Compute(readerDelay)
				if wl.flag == 0 { // racy read steering control flow
					wl.lockA.Lock(w)
					wl.lockA.Unlock(w)
				} else {
					wl.lockB.Lock(w)
					wl.lockB.Unlock(w)
				}
			})
			g.Wait()
			if tr == nil {
				out = trace.New(2)
				if err := out.Apply(rt.Recorder().Collect()); err != nil {
					t.Error(err)
				}
			}
		})
		return out, div
	}

	// Record with a fast reader: it sees flag==0 and takes lock A.
	tr, _ := run(10*time.Microsecond, nil)
	sawA := false
	for _, ev := range threadEvents(tr, 1) {
		if ev.Kind == trace.KindLockAcq && ev.Res == 1 {
			sawA = true
		}
	}
	if !sawA {
		t.Fatal("scenario broken: reader did not take lock A during record")
	}
	// Replay with a slow reader: it sees flag==1 and tries lock B — a
	// divergence from the recorded trace.
	_, div := run(500*time.Microsecond, tr)
	if div == nil {
		t.Fatal("unguarded race did not produce a divergence")
	}
	// The report names the resource whose wrapper caught the mismatch (the
	// one the diverging thread actually touched) and carries the expected
	// event — together they point the developer at both locks (§6.1).
	if div.Resource != "guarded-by-B" {
		t.Errorf("divergence names %q, want the attempted resource", div.Resource)
	}
	if div.Expected.Kind != trace.KindLockAcq || div.Expected.Res != 1 {
		t.Errorf("expected-event in report = %+v, want the recorded lock-A acquire", div.Expected)
	}
}

func swallowStopped() {
	if r := recover(); r != nil {
		if _, ok := r.(Stopped); ok {
			return
		}
		panic(r)
	}
}
