package rexsync

import (
	"rex/internal/env"
	"rex/internal/sched"
	"rex/internal/trace"
)

// Cond is Rex's condition variable (the paper's RexCond), bound to a Lock.
// Recording captures which signal/broadcast enabled each wakeup so that
// secondaries wake waiters in the same order.
type Cond struct {
	rt   *sched.Runtime
	id   uint32
	name string
	lock *Lock
	real env.Cond

	// meta guards signal bookkeeping. Unlike the lock's bookkeeping it has
	// its own mutex so Signal/Broadcast are safe (if unusual) even when the
	// caller does not hold the associated lock.
	meta  env.Mutex
	epoch uint64
	ver   *uint64
	// lastSignal is the most recent signal/broadcast event; a waiter that
	// wakes records an edge from it. Reading it after reacquiring the lock
	// is sound: the signal event was recorded before the real signal, so
	// the edge always points to an already-committed event.
	lastSignal trace.EventID
}

// NewCond creates a condition variable bound to lock. The lock must not be
// conflict-class-owned: a Cond's wait/wake events hang off the lock's
// recorded acquire/release chain, which elision removes.
func NewCond(rt *sched.Runtime, name string, lock *Lock) *Cond {
	if lock.Class() != 0 {
		panic("rexsync: Cond " + name + " bound to conflict-class lock " + lock.name)
	}
	id := rt.RegisterResource()
	return &Cond{
		rt:   rt,
		id:   id,
		name: name,
		ver:  rt.Version(id),
		lock: lock,
		real: rt.Env.NewCond(lock.Real()),
		meta: rt.Env.NewMutex(),
	}
}

func (c *Cond) refreshLocked() {
	if e := c.rt.Epoch(); c.epoch != e {
		c.epoch = e
	}
}

// Wait atomically releases the associated lock, blocks until woken by
// Signal/Broadcast, and reacquires the lock. The caller must hold the lock.
//
// In the trace, Wait is two events on the lock's causal chain: a
// cond-wait-begin that acts as the lock release, and a cond-wake that acts
// as the lock reacquisition and carries an edge from the enabling signal.
func (c *Cond) Wait(w *sched.Worker) {
	for {
		switch w.Mode() {
		case sched.ModeNative:
			c.real.Wait()
			return
		case sched.ModeRecord:
			c.waitRecordRelease(w)
			// Block on the real condition variable (releases and
			// reacquires the real lock).
			c.real.Wait()
			c.waitRecordWake(w)
			return
		default:
			switch c.waitReplay(w) {
			case waitDone:
				return
			case waitAbortFresh:
				// Nothing replayed yet: redo the whole Wait.
				redoAfterAbort(w)
			case waitAbortParked:
				// The committed trace ends with this thread parked on the
				// condition variable: the wait-begin was replayed (lock
				// released) but no wake was recorded. After promotion,
				// park on the real condition variable and record only the
				// wake half on a live wakeup (§4 mode change).
				redoAfterAbort(w)
				c.lock.real.Lock()
				c.real.Wait()
				c.waitRecordWake(w)
				return
			}
		}
	}
}

// waitRecordRelease records the release half of Wait: it behaves exactly
// like Unlock on the lock's causal chain. The caller must hold the lock.
func (c *Cond) waitRecordRelease(w *sched.Worker) {
	l := c.lock
	l.meta.Lock()
	l.refreshLocked()
	*l.ver++
	var in []trace.EventID
	for _, tf := range l.tryFails {
		if !w.PruneEdge(tf) {
			in = append(in, tf)
		}
	}
	l.tryFails = l.tryFails[:0]
	relID := w.Record(trace.Event{Kind: trace.KindCondWaitBegin, Res: l.id, Arg: *l.ver}, in)
	l.lastRel = relID
	l.relVC = append(l.relVC[:0], w.VC()...)
	l.holderAcq = trace.EventID{}
	l.meta.Unlock()
}

// waitRecordWake records the wake half of Wait: a lock acquire plus an
// edge from the signal that (causally) enabled it. The caller holds the
// real lock again (real.Wait reacquired it).
func (c *Cond) waitRecordWake(w *sched.Worker) {
	l := c.lock
	c.meta.Lock()
	sig := c.lastSignal
	c.meta.Unlock()
	l.meta.Lock()
	l.refreshLocked()
	*l.ver++
	var in []trace.EventID
	if !w.PruneEdge(l.lastRel) {
		in = append(in, l.lastRel)
	}
	w.JoinVC(l.relVC)
	if sig != (trace.EventID{}) && !w.PruneEdge(sig) {
		in = append(in, sig)
	}
	wakeID := w.Record(trace.Event{Kind: trace.KindCondWake, Res: l.id, Arg: *l.ver}, in)
	l.holderAcq = wakeID
	l.meta.Unlock()
}

// waitOutcome describes how far waitReplay got before an abort.
type waitOutcome int

const (
	waitDone        waitOutcome = iota // both halves replayed
	waitAbortFresh                     // aborted before any effect
	waitAbortParked                    // wait-begin replayed, wake missing
)

// waitReplay replays the two halves of Wait.
func (c *Cond) waitReplay(w *sched.Worker) waitOutcome {
	l := c.lock
	ev, id, ok := expectEvent(w, trace.KindCondWaitBegin, l.id, c.name)
	if !ok {
		return waitAbortFresh
	}
	if !waitSources(w, id) {
		return waitAbortFresh
	}
	l.meta.Lock()
	l.refreshLocked()
	*l.ver++
	checkVersion(w, ev, id, *l.ver, l.name)
	l.lastRel = id
	l.holderAcq = trace.EventID{}
	l.tryFails = l.tryFails[:0]
	l.meta.Unlock()
	// Release the real lock; replay does not block on the real condition
	// variable — the recorded wake edge is the wakeup.
	l.real.Unlock()
	rep := w.Runtime().Replayer()
	rep.Commit(w.ID())

	ev2, id2, ok := expectEvent(w, trace.KindCondWake, l.id, c.name)
	if !ok {
		return waitAbortParked
	}
	if !waitSources(w, id2) {
		return waitAbortParked
	}
	l.real.Lock()
	l.meta.Lock()
	l.refreshLocked()
	*l.ver++
	checkVersion(w, ev2, id2, *l.ver, l.name)
	l.holderAcq = id2
	l.meta.Unlock()
	rep.Commit(w.ID())
	return waitDone
}

// Signal wakes one waiter.
func (c *Cond) Signal(w *sched.Worker) {
	c.signalOrBroadcast(w, trace.KindCondSignal)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(w *sched.Worker) {
	c.signalOrBroadcast(w, trace.KindCondBroadcast)
}

func (c *Cond) signalOrBroadcast(w *sched.Worker, kind trace.Kind) {
	for {
		switch w.Mode() {
		case sched.ModeNative:
			if kind == trace.KindCondSignal {
				c.real.Signal()
			} else {
				c.real.Broadcast()
			}
			return
		case sched.ModeRecord:
			// Record the event before performing the real signal so the
			// woken waiter observes an already-committed signal event.
			c.meta.Lock()
			c.refreshLocked()
			*c.ver++
			c.lastSignal = w.Record(trace.Event{Kind: kind, Res: c.id, Arg: *c.ver}, nil)
			c.meta.Unlock()
			if kind == trace.KindCondSignal {
				c.real.Signal()
			} else {
				c.real.Broadcast()
			}
			return
		default:
			ev, id, ok := expectEvent(w, kind, c.id, c.name)
			if !ok {
				redoAfterAbort(w)
				continue
			}
			if !waitSources(w, id) {
				redoAfterAbort(w)
				continue
			}
			c.meta.Lock()
			c.refreshLocked()
			*c.ver++
			checkVersion(w, ev, id, *c.ver, c.name)
			c.lastSignal = id
			c.meta.Unlock()
			// No real signal: replayed waiters are woken by their recorded
			// wake edges, and native-mode readers never Wait. The real
			// condition variable is only used in record/native modes.
			w.Runtime().Replayer().Commit(w.ID())
			return
		}
	}
}
