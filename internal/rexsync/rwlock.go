package rexsync

import (
	"rex/internal/env"
	"rex/internal/sched"
	"rex/internal/trace"
	"rex/internal/vclock"
)

// rwCore is a real readers–writer lock built from env primitives so it
// works under both the real and the simulated environment. It is
// writer-preferring: arriving readers wait while a writer is waiting, which
// prevents writer starvation (matching the behaviour server applications
// expect from e.g. Kyoto Cabinet's slice locks).
type rwCore struct {
	mu             env.Mutex
	rCond, wCond   env.Cond
	readers        int
	writer         bool
	writersWaiting int
}

func newRWCore(e env.Env) *rwCore {
	c := &rwCore{mu: e.NewMutex()}
	c.rCond = e.NewCond(c.mu)
	c.wCond = e.NewCond(c.mu)
	return c
}

func (c *rwCore) RLock() {
	c.mu.Lock()
	for c.writer || c.writersWaiting > 0 {
		c.rCond.Wait()
	}
	c.readers++
	c.mu.Unlock()
}

func (c *rwCore) RUnlock() {
	c.mu.Lock()
	c.readers--
	if c.readers < 0 {
		c.mu.Unlock()
		panic("rexsync: RUnlock without RLock")
	}
	if c.readers == 0 {
		c.wCond.Signal()
	}
	c.mu.Unlock()
}

func (c *rwCore) Lock() {
	c.mu.Lock()
	c.writersWaiting++
	for c.writer || c.readers > 0 {
		c.wCond.Wait()
	}
	c.writersWaiting--
	c.writer = true
	c.mu.Unlock()
}

func (c *rwCore) Unlock() {
	c.mu.Lock()
	if !c.writer {
		c.mu.Unlock()
		panic("rexsync: Unlock without Lock")
	}
	c.writer = false
	if c.writersWaiting > 0 {
		c.wCond.Signal()
	} else {
		c.rCond.Broadcast()
	}
	c.mu.Unlock()
}

// RWLock is Rex's readers–writer lock (the paper's RexReadWriteLock).
// Reader acquisitions are mutually unordered in the trace — they record
// only an edge from the last writer release and the version they observed —
// so concurrent readers replay concurrently (§4.2's partial-order
// trade-off applied to readers/writer locks).
type RWLock struct {
	rt   *sched.Runtime
	id   uint32
	name string
	// class is the conflict class that owns this lock (0 = unowned); see
	// Lock.class for the ownership contract. When the executing request is
	// in the owning class, all four operations are elided from the trace:
	// the class's requests are serialized on one thread, so reader/writer
	// ordering is implied by program order, and the real rwCore still
	// excludes native-mode readers.
	class uint32
	real  *rwCore
	meta  env.Mutex

	epoch uint64
	ver   *uint64
	// lastWRel is the most recent writer-release event; readers and the
	// next writer record edges from it.
	lastWRel   trace.EventID
	lastWRelVC vclock.VC
	// readerRels accumulates reader-release events since the last writer
	// acquisition; the next writer acquisition records edges from all of
	// them (it must wait for every reader).
	readerRels   []trace.EventID
	readerRelVCs []vclock.VC
}

// NewRWLock creates a readers–writer lock registered with the runtime.
func NewRWLock(rt *sched.Runtime, name string) *RWLock {
	id := rt.RegisterResource()
	return &RWLock{
		rt:   rt,
		id:   id,
		name: name,
		ver:  rt.Version(id),
		real: newRWCore(rt.Env),
		meta: rt.Env.NewMutex(),
	}
}

// NewRWLockInClass creates a readers–writer lock owned by the given
// conflict class (see NewLockInClass for the ownership contract).
func NewRWLockInClass(rt *sched.Runtime, name string, class uint32) *RWLock {
	l := NewRWLock(rt, name)
	l.class = class
	return l
}

// ID returns the lock's resource id.
func (l *RWLock) ID() uint32 { return l.id }

// Class returns the conflict class that owns the lock (0 = unowned).
func (l *RWLock) Class() uint32 { return l.class }

func (l *RWLock) refreshLocked() {
	if e := l.rt.Epoch(); l.epoch != e {
		l.epoch = e
		l.lastWRelVC = nil
		for i := range l.readerRelVCs {
			l.readerRelVCs[i] = nil
		}
	}
}

// RLock acquires l for reading.
func (l *RWLock) RLock(w *sched.Worker) {
	if w.ElideFor(l.class) {
		l.real.RLock()
		return
	}
	for {
		switch w.Mode() {
		case sched.ModeNative:
			l.real.RLock()
			return
		case sched.ModeRecord:
			l.real.RLock()
			l.meta.Lock()
			l.refreshLocked()
			var in []trace.EventID
			if !w.PruneEdge(l.lastWRel) {
				in = append(in, l.lastWRel)
			}
			w.JoinVC(l.lastWRelVC)
			// Readers do not bump the version: concurrent reader
			// acquisitions commute; they record the version observed.
			w.Record(trace.Event{Kind: trace.KindRLockAcq, Res: l.id, Arg: *l.ver}, in)
			l.meta.Unlock()
			return
		default:
			ev, id, ok := expectEvent(w, trace.KindRLockAcq, l.id, l.name)
			if !ok {
				redoAfterAbort(w)
				continue
			}
			if !waitSources(w, id) {
				redoAfterAbort(w)
				continue
			}
			l.real.RLock()
			l.meta.Lock()
			l.refreshLocked()
			checkVersion(w, ev, id, *l.ver, l.name)
			l.meta.Unlock()
			w.Runtime().Replayer().Commit(w.ID())
			return
		}
	}
}

// RUnlock releases a read acquisition.
func (l *RWLock) RUnlock(w *sched.Worker) {
	if w.ElideFor(l.class) {
		l.real.RUnlock()
		return
	}
	for {
		switch w.Mode() {
		case sched.ModeNative:
			l.real.RUnlock()
			return
		case sched.ModeRecord:
			l.meta.Lock()
			l.refreshLocked()
			id := w.Record(trace.Event{Kind: trace.KindRLockRel, Res: l.id, Arg: *l.ver}, nil)
			l.readerRels = append(l.readerRels, id)
			l.readerRelVCs = append(l.readerRelVCs, w.VC().Clone())
			l.meta.Unlock()
			l.real.RUnlock()
			return
		default:
			ev, id, ok := expectEvent(w, trace.KindRLockRel, l.id, l.name)
			if !ok {
				redoAfterAbort(w)
				continue
			}
			if !waitSources(w, id) {
				redoAfterAbort(w)
				continue
			}
			l.meta.Lock()
			l.refreshLocked()
			checkVersion(w, ev, id, *l.ver, l.name)
			l.readerRels = append(l.readerRels, id)
			l.readerRelVCs = append(l.readerRelVCs, nil)
			l.meta.Unlock()
			l.real.RUnlock()
			w.Runtime().Replayer().Commit(w.ID())
			return
		}
	}
}

// Lock acquires l for writing.
func (l *RWLock) Lock(w *sched.Worker) {
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
			l.real.Lock()
			l.meta.Lock()
			l.refreshLocked()
			*l.ver++
			var in []trace.EventID
			if !w.PruneEdge(l.lastWRel) {
				in = append(in, l.lastWRel)
			}
			w.JoinVC(l.lastWRelVC)
			for i, r := range l.readerRels {
				if !w.PruneEdge(r) {
					in = append(in, r)
				}
				w.JoinVC(l.readerRelVCs[i])
			}
			l.readerRels = l.readerRels[:0]
			l.readerRelVCs = l.readerRelVCs[:0]
			w.Record(trace.Event{Kind: trace.KindWLockAcq, Res: l.id, Arg: *l.ver}, in)
			l.meta.Unlock()
			return
		default:
			ev, id, ok := expectEvent(w, trace.KindWLockAcq, l.id, l.name)
			if !ok {
				redoAfterAbort(w)
				continue
			}
			// Wait for every recorded reader release and the previous
			// writer release before taking the real write lock.
			if !waitSources(w, id) {
				redoAfterAbort(w)
				continue
			}
			l.real.Lock()
			l.meta.Lock()
			l.refreshLocked()
			*l.ver++
			checkVersion(w, ev, id, *l.ver, l.name)
			l.readerRels = l.readerRels[:0]
			l.readerRelVCs = l.readerRelVCs[:0]
			l.meta.Unlock()
			w.Runtime().Replayer().Commit(w.ID())
			return
		}
	}
}

// Unlock releases a write acquisition.
func (l *RWLock) Unlock(w *sched.Worker) {
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
			l.meta.Lock()
			l.refreshLocked()
			*l.ver++
			id := w.Record(trace.Event{Kind: trace.KindWLockRel, Res: l.id, Arg: *l.ver}, nil)
			l.lastWRel = id
			l.lastWRelVC = w.VC().Clone()
			l.meta.Unlock()
			l.real.Unlock()
			return
		default:
			ev, id, ok := expectEvent(w, trace.KindWLockRel, l.id, l.name)
			if !ok {
				redoAfterAbort(w)
				continue
			}
			if !waitSources(w, id) {
				redoAfterAbort(w)
				continue
			}
			l.meta.Lock()
			l.refreshLocked()
			*l.ver++
			checkVersion(w, ev, id, *l.ver, l.name)
			l.lastWRel = id
			l.meta.Unlock()
			l.real.Unlock()
			w.Runtime().Replayer().Commit(w.ID())
			return
		}
	}
}
