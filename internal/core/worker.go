package core

import (
	"fmt"
	"math/rand"
	"time"

	"rex/internal/env"
	"rex/internal/rexsync"
	"rex/internal/sched"
	"rex/internal/trace"
)

// incarnation is one rebuilt execution of the application: a fresh
// runtime and state machine, restored from a checkpoint and replaying the
// committed trace. rebuild builds it and the next rebuild replaces it; it
// owns the worker, timer and checkpoint-coordinator tasks, which outlive a
// promotion (the runtime switches to record mode under them) and exit once
// r.inc no longer points at their incarnation. Immutable once published.
type incarnation struct {
	seq        int // 1 for Start's rebuild, then one more per rebuild; names tasks
	rt         *sched.Runtime
	sm         StateMachine
	classifier ConflictClassifier // sm, if it classifies conflicts
	timers     []timerSpec
}

// spawnExecution starts inc's logical-thread tasks: request workers and
// timer threads, and the checkpoint coordinator.
//
// These tasks are deliberately not joined by Stop: a demoted primary
// abandons its speculative incarnation (the paper's process-level
// rollback, §5.2), and a worker of an abandoned incarnation may be parked
// on an abandoned application's condition variable until the environment
// tears it down.
func (r *Replica) spawnExecution(inc *incarnation) {
	for i := 0; i < r.cfg.Workers; i++ {
		r.e.Go(fmt.Sprintf("rex-%d-worker-%d-g%d", r.cfg.ID, i, inc.seq), func() {
			r.workerLoop(inc, i)
		})
	}
	for j, spec := range inc.timers {
		ti := r.cfg.Workers + j
		r.e.Go(fmt.Sprintf("rex-%d-timer-%s-g%d", r.cfg.ID, spec.name, inc.seq), func() {
			r.timerLoop(inc, ti, uint32(j), spec)
		})
	}
	r.e.Go(fmt.Sprintf("rex-%d-ckpt-coord-g%d", r.cfg.ID, inc.seq), func() {
		r.checkpointCoordinator(inc)
	})
}

// recoverWorker converts panics from the record/replay machinery into
// clean exits or replica faults.
func (r *Replica) recoverWorker() {
	switch v := recover().(type) {
	case nil:
	case rexsync.Stopped:
		// Clean shutdown of this incarnation.
	case *sched.DivergenceError:
		r.fault(v)
	default:
		panic(v)
	}
}

// workerLoop runs one request-handler thread across mode changes: it
// replays as long as the runtime is in replay mode, and records (pulling
// work from the primary's queue) in record mode.
func (r *Replica) workerLoop(inc *incarnation, ti int) {
	defer r.recoverWorker()
	w := inc.rt.Worker(ti)
	ctx := &Ctx{w: w, e: r.e, rng: rand.New(rand.NewSource(r.cfg.Seed ^ int64(ti)<<32 ^ 0x5bf03635))}
	for {
		if r.ended(inc) {
			return
		}
		switch inc.rt.Mode() {
		case sched.ModeRecord:
			if !r.recordStep(inc, ctx) {
				return
			}
		case sched.ModeReplay:
			if !r.replayStep(inc, ctx) {
				return
			}
		default:
			return
		}
	}
}

// recordStep executes one request in record mode (primary, execute stage).
func (r *Replica) recordStep(inc *incarnation, ctx *Ctx) bool {
	work, ok := r.nextWork(inc, int(ctx.w.ID()))
	if !ok {
		// Demoted, stopped, or a new incarnation: if the runtime merely
		// left record mode this incarnation is done anyway.
		return false
	}
	w := ctx.w
	// Dispatch-computed causal edges (catch-all barriers and the first
	// classified request after one) ride on the req-begin event.
	var in []trace.EventID
	for _, src := range work.in {
		if !w.PruneEdge(src) {
			in = append(in, src)
		}
	}
	w.Record(trace.Event{Kind: trace.KindReqBegin, Res: uint32(work.idx)}, in)
	w.SetClass(work.class)
	resp := inc.sm.Apply(ctx, work.body)
	w.SetClass(0)
	end := w.Record(trace.Event{Kind: trace.KindReqEnd, Res: uint32(work.idx), Arg: hashResponse(resp)}, nil)
	r.completeLocal(inc, work, resp, end)
	return true
}

// replayStep follows one request (or detects a mode change) on a
// secondary. Returns false when this worker task should exit.
func (r *Replica) replayStep(inc *incarnation, ctx *Ctx) bool {
	rt := inc.rt
	rep := rt.Replayer()
	w := ctx.w
	ev, id, ok := rep.Next(w.ID())
	if !ok {
		// Aborted: promotion switches us to record mode; otherwise exit.
		return rt.Mode() == sched.ModeRecord && !r.ended(inc)
	}
	if ev.Kind != trace.KindReqBegin {
		r.fault(&sched.DivergenceError{
			Thread: w.ID(), Clock: w.Clock() + 1, Expected: ev,
			GotKind: trace.KindReqBegin, Resource: "request-dispatch",
			Detail: "worker thread expected a request begin",
		})
		return false
	}
	// Dispatch edges (catch-all barriers, first-after-barrier requests) are
	// recorded on the req-begin; honor them before executing the handler.
	if in := rep.In(id); len(in) > 0 && !rep.WaitSources(in) {
		return rt.Mode() == sched.ModeRecord && !r.ended(inc)
	}
	idx := uint64(ev.Res)
	req, found := rep.ReqBody(idx)
	if !found {
		r.fault(fmt.Errorf("rex: replay references unknown request %d", idx))
		return false
	}
	rep.Commit(w.ID())
	w.SetClass(req.Class)
	resp := inc.sm.Apply(ctx, req.Body)
	w.SetClass(0)

	if rt.Mode() == sched.ModeRecord {
		// Promoted mid-request (§4 mode change): the remainder of the
		// handler already recorded live.
		r.finishCarried(inc, w, idx, req, resp)
		return true
	}

	ev2, _, ok := rep.Next(w.ID())
	if !ok {
		if rt.Mode() != sched.ModeRecord {
			return false
		}
		// Promoted between the handler's last event and its req-end.
		r.finishCarried(inc, w, idx, req, resp)
		return true
	}
	if ev2.Kind != trace.KindReqEnd || uint64(ev2.Res) != idx {
		r.fault(&sched.DivergenceError{
			Thread: w.ID(), Clock: w.Clock(), Expected: ev2,
			GotKind: trace.KindReqEnd, GotRes: uint32(idx), Resource: "request-completion",
			Detail: "handler produced a different event structure than recorded",
		})
		return false
	}
	if !r.cfg.UnsafeBrokenReplay && ev2.Arg != hashResponse(resp) {
		r.fault(&sched.DivergenceError{
			Thread: w.ID(), Clock: w.Clock(), Expected: ev2,
			GotKind: trace.KindReqEnd, GotRes: uint32(idx), GotArg: hashResponse(resp),
			Resource: "result-check",
			Detail:   "response hash mismatch (result checking, §5.1)",
		})
		return false
	}
	// Update the dedup table before committing the req-end so a checkpoint
	// coordinator that observes the cut reached sees the entry.
	r.mu.Lock()
	r.dedup[req.Client] = dedupEntry{seq: req.Seq, resp: resp}
	r.stats.ReqsCompleted++
	r.mu.Unlock()
	rep.Commit(w.ID())
	return true
}

// finishCarried completes request idx, which began under replay and
// finished recording live after a promotion: it records the req-end, then
// makes the dedup/stat updates the two promotion paths in replayStep share,
// plus the conflict-class dispatch bookkeeping such requests otherwise
// escape (promote seeded the in-flight counter with them, and a queued
// catch-all barrier drains on it).
func (r *Replica) finishCarried(inc *incarnation, w *sched.Worker, idx uint64, req trace.Req, resp []byte) {
	end := w.Record(trace.Event{Kind: trace.KindReqEnd, Res: uint32(idx), Arg: hashResponse(resp)}, nil)
	r.mu.Lock()
	if p := r.prim; p != nil && inc.classifier != nil && r.inc == inc {
		if p.noteClassComplete(end, req.Class == ConflictAll) {
			r.workReady[0].Broadcast()
		}
	}
	r.dedup[req.Client] = dedupEntry{seq: req.Seq, resp: resp}
	r.stats.ReqsCompleted++
	r.mu.Unlock()
}

// timerLoop runs one background-task thread (the paper's AddTimer). In
// record mode it fires by time; in replay mode it fires when the trace
// says so.
func (r *Replica) timerLoop(inc *incarnation, ti int, timerID uint32, spec timerSpec) {
	defer r.recoverWorker()
	rt := inc.rt
	w := rt.Worker(ti)
	ctx := &Ctx{w: w, e: r.e, rng: rand.New(rand.NewSource(r.cfg.Seed ^ int64(ti)<<32 ^ 0x7ad870c8))}
	var seq uint64
	for {
		if r.ended(inc) {
			return
		}
		switch rt.Mode() {
		case sched.ModeRecord:
			if !r.sleepInterruptibleGated(inc, spec.interval) {
				return
			}
			if r.ended(inc) {
				return
			}
			r.pauseGate(inc)
			if rt.Mode() != sched.ModeRecord || r.ended(inc) {
				continue
			}
			seq++
			w.Record(trace.Event{Kind: trace.KindTimerFire, Res: timerID, Arg: seq}, nil)
			spec.cb(ctx)
		case sched.ModeReplay:
			rep := rt.Replayer()
			ev, _, ok := rep.Next(w.ID())
			if !ok {
				if rt.Mode() == sched.ModeRecord && !r.ended(inc) {
					continue // promoted: switch to timed firing
				}
				return
			}
			if ev.Kind != trace.KindTimerFire || ev.Res != timerID {
				r.fault(&sched.DivergenceError{
					Thread: w.ID(), Clock: w.Clock() + 1, Expected: ev,
					GotKind: trace.KindTimerFire, GotRes: timerID, Resource: spec.name,
					Detail: "timer thread expected a timer firing",
				})
				return
			}
			seq = ev.Arg
			rep.Commit(w.ID())
			spec.cb(ctx)
		default:
			return
		}
	}
}

// sleepInterruptibleGated is sleepInterruptible plus checkpoint-pause
// participation, so a sleeping timer thread still reaches the barrier.
func (r *Replica) sleepInterruptibleGated(inc *incarnation, d time.Duration) bool {
	const chunk = 5 * time.Millisecond
	deadline := r.e.Now() + d
	for {
		if r.ended(inc) {
			return false
		}
		r.pauseGate(inc)
		now := r.e.Now()
		if now >= deadline {
			return true
		}
		step := deadline - now
		if step > chunk {
			step = chunk
		}
		r.e.Sleep(step)
	}
}

// readWorker serves read-only queries on a native-mode thread (hybrid
// execution, §4; query semantics, §6.5).
func (r *Replica) readWorker() {
	r.mu.Lock()
	inc := r.inc
	r.mu.Unlock()
	w := inc.rt.NativeWorker()
	ctx := &Ctx{w: w, e: r.e, rng: rand.New(rand.NewSource(r.cfg.Seed ^ 0x2957cb3a))}
	for {
		v, ok := r.queryQ.Recv()
		if !ok {
			return
		}
		q := v.(*querySlot)
		r.mu.Lock()
		cur := r.inc
		r.mu.Unlock()
		if cur != inc {
			// The runtime was rebuilt: rebind the native worker.
			inc = cur
			w = inc.rt.NativeWorker()
			ctx = &Ctx{w: w, e: r.e, rng: ctx.rng}
		}
		qh, ok2 := inc.sm.(QueryHandler)
		if !ok2 {
			q.answer(nil, fmt.Errorf("rex: state machine does not implement QueryHandler"))
			continue
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					q.answer(nil, fmt.Errorf("rex: query panicked: %v", p))
				}
			}()
			q.answer(qh.Query(ctx, q.body), nil)
		}()
	}
}

// querySlot carries one query to a read worker and its answer back.
// Slots are reused through the replica's free list, so a read allocates
// neither a reply channel nor boxed work and results.
type querySlot struct {
	body []byte
	resp []byte
	err  error
	done env.Chan // one slot; signalled once resp and err are set
}

// answer records the query's result and wakes the waiting reader.
func (q *querySlot) answer(resp []byte, err error) {
	q.resp, q.err = resp, err
	q.done.Send(struct{}{})
}

// Query executes a read-only request on this replica outside the
// replication protocol. On the primary it observes speculative
// (pre-consensus) state; on a secondary it observes committed-and-replayed
// state (§6.5's two query semantics). For reads with consistency
// guarantees, use QueryLevel (read.go).
func (r *Replica) Query(q []byte) ([]byte, error) {
	r.mu.Lock()
	if r.stopped || r.faultErr != nil {
		r.mu.Unlock()
		return nil, ErrStopped
	}
	r.mu.Unlock()
	return r.runQuery(q)
}

// runQuery hands q to the read pool and waits for its answer.
func (r *Replica) runQuery(q []byte) ([]byte, error) {
	if r.cfg.ReadWorkers <= 0 {
		return nil, fmt.Errorf("rex: no read workers configured")
	}
	var slot *querySlot
	if v, ok, _ := r.querySlots.TryRecv(); ok {
		slot = v.(*querySlot)
	} else {
		slot = &querySlot{done: r.e.NewChan(1)}
	}
	slot.body = q
	if !r.queryQ.Send(slot) {
		return nil, ErrStopped
	}
	if _, ok := slot.done.Recv(); !ok {
		return nil, ErrStopped
	}
	resp, err := slot.resp, slot.err
	*slot = querySlot{done: slot.done}
	r.querySlots.TrySend(slot)
	return resp, err
}
