package rexsync

import (
	"rex/internal/env"
	"rex/internal/sched"
	"rex/internal/trace"
	"rex/internal/vclock"
)

// semCore is a counting semaphore built from env primitives.
type semCore struct {
	mu    env.Mutex
	cond  env.Cond
	count int
}

func newSemCore(e env.Env, n int) *semCore {
	c := &semCore{mu: e.NewMutex(), count: n}
	c.cond = e.NewCond(c.mu)
	return c
}

func (c *semCore) Acquire() {
	c.mu.Lock()
	for c.count == 0 {
		c.cond.Wait()
	}
	c.count--
	c.mu.Unlock()
}

func (c *semCore) Release() {
	c.mu.Lock()
	c.count++
	c.cond.Signal()
	c.mu.Unlock()
}

// Semaphore is Rex's counting semaphore. Its events are chained in a
// per-resource total order (each operation records an edge from the
// previous one). This is coarser than the ground-truth partial order —
// acquires that consumed different units commute — but semaphores are rare
// in the paper's applications (Table 1 lists none) and the total chain
// keeps version checking exact.
type Semaphore struct {
	rt   *sched.Runtime
	id   uint32
	name string
	real *semCore
	meta env.Mutex

	epoch  uint64
	ver    *uint64
	last   trace.EventID
	lastVC vclock.VC
}

// NewSemaphore creates a semaphore with n initial units.
func NewSemaphore(rt *sched.Runtime, name string, n int) *Semaphore {
	id := rt.RegisterResource()
	return &Semaphore{
		rt:   rt,
		id:   id,
		name: name,
		ver:  rt.Version(id),
		real: newSemCore(rt.Env, n),
		meta: rt.Env.NewMutex(),
	}
}

// ID returns the semaphore's resource id.
func (s *Semaphore) ID() uint32 { return s.id }

func (s *Semaphore) refreshLocked() {
	if e := s.rt.Epoch(); s.epoch != e {
		s.epoch = e
		s.lastVC = nil
	}
}

// Acquire takes one unit, blocking until available. Like a lock acquire,
// the real operation happens first and the event is recorded after, so the
// event order matches the real availability order.
func (s *Semaphore) Acquire(w *sched.Worker) {
	s.op(w, trace.KindSemAcq, s.real.Acquire, true)
}

// Release returns one unit. Like a lock release, the event is recorded
// before the real operation, so any acquire it enables chains after it.
// (The opposite order would let the woken acquirer record first, producing
// a trace whose replay deadlocks.)
func (s *Semaphore) Release(w *sched.Worker) {
	s.op(w, trace.KindSemRel, s.real.Release, false)
}

func (s *Semaphore) op(w *sched.Worker, kind trace.Kind, realOp func(), realFirst bool) {
	for {
		switch w.Mode() {
		case sched.ModeNative:
			realOp()
			return
		case sched.ModeRecord:
			if realFirst {
				realOp()
			}
			s.meta.Lock()
			s.refreshLocked()
			*s.ver++
			var in []trace.EventID
			if !w.PruneEdge(s.last) {
				in = append(in, s.last)
			}
			w.JoinVC(s.lastVC)
			s.last = w.Record(trace.Event{Kind: kind, Res: s.id, Arg: *s.ver}, in)
			s.lastVC = w.VC().Clone()
			s.meta.Unlock()
			if !realFirst {
				realOp()
			}
			return
		default:
			ev, id, ok := expectEvent(w, kind, s.id, s.name)
			if !ok {
				redoAfterAbort(w)
				continue
			}
			if !waitSources(w, id) {
				redoAfterAbort(w)
				continue
			}
			if realFirst {
				realOp()
			}
			s.meta.Lock()
			s.refreshLocked()
			*s.ver++
			checkVersion(w, ev, id, *s.ver, s.name)
			s.last = id
			s.meta.Unlock()
			if !realFirst {
				realOp()
			}
			w.Runtime().Replayer().Commit(w.ID())
			return
		}
	}
}
