package rexsync

import (
	"rex/internal/env"
	"rex/internal/sched"
	"rex/internal/trace"
	"rex/internal/vclock"
)

// Lock is Rex's mutex (the paper's RexLock, Fig. 3). On the primary it
// behaves exactly like a traditional mutex while recording acquisition
// order; on secondaries it enforces the recorded order.
type Lock struct {
	rt   *sched.Runtime
	id   uint32
	name string
	// class is the conflict class that owns this lock (0 = unowned). A
	// class-owned lock may only be touched by requests of that class (all
	// serialized on one deterministic thread), by catch-all requests under
	// the dispatch barrier, and by native-mode readers; its Lock/Unlock
	// events are elided from the trace when the executing request is in
	// the owning class, because program order already implies them.
	class uint32

	real env.Mutex
	// meta guards the recording bookkeeping below. It is ordered after
	// real everywhere (real is acquired first), and it is what makes a
	// failed TryLock's event logging atomic with respect to the holder's
	// acquire/release events (§4.1).
	meta env.Mutex

	epoch uint64
	// ver points at the runtime's version slot for this resource (§5.1);
	// versions live in the runtime so checkpoints capture them.
	ver *uint64
	// lastRel is the most recent release-like event (unlock or
	// cond-wait-begin); the next acquire records an edge from it.
	lastRel trace.EventID
	// relVC is the releaser's vector clock at lastRel, used to prune
	// redundant edges. nil means "the current epoch's base cut", which
	// covers everything before a promotion barrier. Acquirers only join
	// it under meta, so a release overwrites it in place.
	relVC vclock.VC
	// holderAcq is the acquire-like event of the current holder; failed
	// TryLocks record an edge from it (Fig. 4).
	holderAcq trace.EventID
	// tryFails are the failed-TryLock events since the current acquire;
	// the next release records edges from them so that replayed TryFails
	// happen while the lock is still held (Fig. 4).
	tryFails []trace.EventID
	// lastChain is the most recent event in the resource's total order,
	// maintained only under the TotalOrderTryFail ablation.
	lastChain trace.EventID
}

// NewLock creates a lock registered with the runtime. Locks must be
// created in a deterministic order across replicas (normally at state
// machine construction).
func NewLock(rt *sched.Runtime, name string) *Lock {
	id := rt.RegisterResource()
	return &Lock{
		rt:   rt,
		id:   id,
		name: name,
		ver:  rt.Version(id),
		real: rt.Env.NewMutex(),
		meta: rt.Env.NewMutex(),
	}
}

// NewLockInClass creates a lock owned by the given conflict class. The
// application promises the contract in the class field's doc: only the
// owning class's requests (plus barriered catch-all requests and native
// readers) touch it, never background timers, and only via Lock/Unlock.
func NewLockInClass(rt *sched.Runtime, name string, class uint32) *Lock {
	l := NewLock(rt, name)
	l.class = class
	return l
}

// ID returns the lock's resource id.
func (l *Lock) ID() uint32 { return l.id }

// Class returns the conflict class that owns the lock (0 = unowned).
func (l *Lock) Class() uint32 { return l.class }

// Real returns the underlying mutex (used by Cond to build on it).
func (l *Lock) Real() env.Mutex { return l.real }

// refreshLocked resets epoch-scoped pruning state after a promotion.
// Called with meta held.
func (l *Lock) refreshLocked() {
	if e := l.rt.Epoch(); l.epoch != e {
		l.epoch = e
		l.relVC = nil
	}
}

// Lock acquires l under the worker's current execution mode. When the
// executing request's conflict class owns the lock, the acquisition is
// elided from the trace in record AND replay mode — both sides derive the
// class from the request, so they agree — and only the real mutex is
// taken (still needed against native-mode readers).
func (l *Lock) Lock(w *sched.Worker) {
	if w.ElideFor(l.class) {
		l.real.Lock()
		return
	}
	for {
		switch w.Mode() {
		case sched.ModeNative:
			l.real.Lock()
			return
		case sched.ModeRecord:
			l.lockRecord(w)
			return
		default:
			if l.lockReplay(w) {
				return
			}
			redoAfterAbort(w)
		}
	}
}

// Unlock releases l.
func (l *Lock) Unlock(w *sched.Worker) {
	if w.ElideFor(l.class) {
		l.real.Unlock()
		return
	}
	for {
		switch w.Mode() {
		case sched.ModeNative:
			l.real.Unlock()
			return
		case sched.ModeRecord:
			l.unlockRecord(w)
			return
		default:
			if l.unlockReplay(w) {
				return
			}
			redoAfterAbort(w)
		}
	}
}

// TryLock attempts to acquire l without blocking and reports success. The
// outcome is part of the trace: secondaries reproduce the recorded result.
// Class-owned locks do not support TryLock: elided Lock/Unlock events
// leave the holder/version metadata a TryFail edge would hang off stale.
func (l *Lock) TryLock(w *sched.Worker) bool {
	if l.class != 0 {
		panic("rexsync: TryLock on conflict-class lock " + l.name + " (class-owned locks support only Lock/Unlock)")
	}
	for {
		switch w.Mode() {
		case sched.ModeNative:
			return l.real.TryLock()
		case sched.ModeRecord:
			return l.tryLockRecord(w)
		default:
			got, ok := l.tryLockReplay(w)
			if ok {
				return got
			}
			redoAfterAbort(w)
		}
	}
}

func (l *Lock) lockRecord(w *sched.Worker) {
	l.real.Lock()
	l.meta.Lock()
	l.refreshLocked()
	*l.ver++
	src := l.lastRel
	if l.rt.TotalOrderTryFail && l.lastChain != (trace.EventID{}) {
		src = l.lastChain
	}
	var in []trace.EventID
	if !w.PruneEdge(src) {
		in = append(in, src)
	}
	w.JoinVC(l.relVC)
	l.holderAcq = w.Record(trace.Event{Kind: trace.KindLockAcq, Res: l.id, Arg: *l.ver}, in)
	l.lastChain = l.holderAcq
	l.meta.Unlock()
}

func (l *Lock) unlockRecord(w *sched.Worker) {
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
	id := w.Record(trace.Event{Kind: trace.KindLockRel, Res: l.id, Arg: *l.ver}, in)
	l.lastRel = id
	l.lastChain = id
	l.relVC = append(l.relVC[:0], w.VC()...)
	l.holderAcq = trace.EventID{}
	l.meta.Unlock()
	l.real.Unlock()
}

func (l *Lock) tryLockRecord(w *sched.Worker) bool {
	ok := l.real.TryLock()
	l.meta.Lock()
	l.refreshLocked()
	if ok {
		*l.ver++
		src := l.lastRel
		if l.rt.TotalOrderTryFail && l.lastChain != (trace.EventID{}) {
			src = l.lastChain
		}
		var in []trace.EventID
		if !w.PruneEdge(src) {
			in = append(in, src)
		}
		w.JoinVC(l.relVC)
		l.holderAcq = w.Record(trace.Event{Kind: trace.KindTryAcq, Res: l.id, Arg: *l.ver}, in)
		l.lastChain = l.holderAcq
	} else if l.rt.TotalOrderTryFail {
		// Ablation mode (Fig. 4 left): chain the failed TryLock into the
		// resource's total order — it waits for the previous chain event
		// and everything after waits for it, sacrificing replay
		// parallelism.
		src := l.lastChain
		if src == (trace.EventID{}) {
			src = l.holderAcq
		}
		var in []trace.EventID
		if !w.PruneEdge(src) {
			in = append(in, src)
		}
		id := w.Record(trace.Event{Kind: trace.KindTryFail, Res: l.id, Arg: *l.ver}, in)
		l.lastChain = id
		l.tryFails = append(l.tryFails, id)
	} else {
		// Failed TryLock: totally ordering it with all lock events would
		// cost replay parallelism (Fig. 4 left); instead it is pinned
		// between the holder's acquire (edge recorded here) and the
		// holder's release (edge recorded at Unlock, via tryFails). It
		// does not bump the version: concurrent failures commute.
		src := l.holderAcq
		if src == (trace.EventID{}) {
			// The holder is a native-mode reader (hybrid execution):
			// order after the last recorded release instead.
			src = l.lastRel
		}
		var in []trace.EventID
		if !w.PruneEdge(src) {
			in = append(in, src)
		}
		id := w.Record(trace.Event{Kind: trace.KindTryFail, Res: l.id, Arg: *l.ver}, in)
		l.tryFails = append(l.tryFails, id)
	}
	l.meta.Unlock()
	return ok
}

func (l *Lock) lockReplay(w *sched.Worker) bool {
	ev, id, ok := expectEvent(w, trace.KindLockAcq, l.id, l.name)
	if !ok {
		return false
	}
	if !waitSources(w, id) {
		return false
	}
	// The recorded order is now satisfied; the real lock may still be held
	// transiently by a native-mode reader, in which case Lock blocks until
	// it restores the state (§4.2, hybrid execution).
	l.real.Lock()
	l.meta.Lock()
	l.refreshLocked()
	*l.ver++
	checkVersion(w, ev, id, *l.ver, l.name)
	l.holderAcq = id
	l.meta.Unlock()
	w.Runtime().Replayer().Commit(w.ID())
	return true
}

func (l *Lock) unlockReplay(w *sched.Worker) bool {
	ev, id, ok := expectEvent(w, trace.KindLockRel, l.id, l.name)
	if !ok {
		return false
	}
	// The release waits for the recorded failed TryLocks so they observe
	// the lock still held (Fig. 4 edges X, D, Z).
	if !waitSources(w, id) {
		return false
	}
	l.meta.Lock()
	l.refreshLocked()
	*l.ver++
	checkVersion(w, ev, id, *l.ver, l.name)
	l.lastRel = id
	l.holderAcq = trace.EventID{}
	l.tryFails = l.tryFails[:0]
	l.meta.Unlock()
	l.real.Unlock()
	w.Runtime().Replayer().Commit(w.ID())
	return true
}

// tryLockReplay returns (result, ok); ok=false means aborted.
func (l *Lock) tryLockReplay(w *sched.Worker) (bool, bool) {
	ev, id, ok := expectOneOf(w, l.id, l.name, trace.KindTryAcq, trace.KindTryFail)
	if !ok {
		return false, false
	}
	if !waitSources(w, id) {
		return false, false
	}
	l.meta.Lock()
	l.refreshLocked()
	if ev.Kind == trace.KindTryAcq {
		// A successful TryLock is an acquire; the recorded order guarantees
		// availability, modulo transient native readers, so spin briefly.
		l.meta.Unlock()
		for !l.real.TryLock() {
			w.Runtime().Env.Sleep(0) // yield: a native reader holds it
		}
		l.meta.Lock()
		*l.ver++
		checkVersion(w, ev, id, *l.ver, l.name)
		l.holderAcq = id
		l.meta.Unlock()
	} else {
		// A failed TryLock leaves the lock untouched: reproduce the result
		// without touching the real lock (the recorded edges already pin
		// it between the holder's acquire and release).
		checkVersion(w, ev, id, *l.ver, l.name)
		l.tryFails = append(l.tryFails, id)
		l.meta.Unlock()
	}
	w.Runtime().Replayer().Commit(w.ID())
	return ev.Kind == trace.KindTryAcq, true
}
