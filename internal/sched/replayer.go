package sched

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"rex/internal/env"
	"rex/internal/trace"
)

// Replayer drives the follow stage on a secondary: it owns the replica's
// copy of the committed trace and releases events to workers only when (a)
// the event is inside the last consistent cut of what has been committed,
// and (b) every causally preceding event has executed (§2.1, §4).
//
// Gating at the last consistent cut means a secondary never executes the
// residue of an inconsistent proposal, so a leader change never needs to
// roll a secondary back — only a demoted primary rolls back (§3.2, §5.2).
type Replayer struct {
	mu env.Mutex
	// release[t] wakes thread t's Next: broadcast when t's release limit
	// grows, and for every thread when a mark completes or replay aborts.
	release []env.Cond
	// perThread[t] is signaled when executed[t] advances; edge waiters wait
	// on the source thread's cond to avoid broadcast storms.
	perThread []env.Cond
	// progress is broadcast on any watermark advance (mark coordinator,
	// catch-up, session reads), but only while progressWaiters > 0.
	progress        env.Cond
	progressWaiters int
	nextWaits       []uint64 // per thread: times Next went to sleep

	tr       *trace.Trace
	limit    trace.Cut // last consistent cut of the applied deltas
	next     trace.Cut // Extend computes the next limit here, then swaps
	executed trace.Cut
	aborted  bool
	marks    []trace.Mark // pending checkpoint marks, oldest first

	waitedEvents   uint64 // events that blocked on at least one causal edge
	replayedEvents uint64

	// skipEdgeWaits, when set, makes WaitSources release every event
	// immediately instead of waiting for its causal predecessors —
	// deliberately breaking the Determinism leg of the Rex contract. It
	// exists only so the chaos checker can prove it catches a broken
	// replayer (set via Runtime.UnsafeSkipEdgeWaits; never in production).
	skipEdgeWaits bool

	e  env.Env
	ob *ReplayObs // nil disables metric collection
	// lagQ holds the commit-time watermarks pending execution, oldest
	// first. Its storage past len is retired marks whose cuts the next
	// ones reuse.
	lagQ []lagMark
}

// lagMark remembers when a committed delta's release frontier was reached,
// so Commit can measure commit→replayed lag once replay catches up to it.
type lagMark struct {
	cut trace.Cut
	at  time.Duration
}

// maxLagQ bounds the pending-watermark queue; when replay falls far behind
// the commit stream, further deltas simply go unmeasured.
const maxLagQ = 1024

// NewReplayer wraps tr for replay. Events inside base are considered
// already executed (restored from a checkpoint); base must be a consistent
// cut of tr. A base beyond tr's frontier yields ErrCutBeyondTrace.
func NewReplayer(e env.Env, tr *trace.Trace, base trace.Cut) (*Replayer, error) {
	n := tr.NumThreads()
	r := &Replayer{
		mu:       e.NewMutex(),
		tr:       tr,
		executed: make(trace.Cut, n),
		e:        e,
	}
	for t := 0; t < n; t++ {
		if t < len(base) {
			r.executed[t] = base[t]
		}
	}
	limit, err := tr.ConsistentCut(r.executed.Clone())
	if err != nil {
		return nil, err
	}
	r.limit = limit
	r.progress = e.NewCond(r.mu)
	r.release = make([]env.Cond, n)
	r.perThread = make([]env.Cond, n)
	r.nextWaits = make([]uint64, n)
	for t := 0; t < n; t++ {
		r.release[t] = e.NewCond(r.mu)
		r.perThread[t] = e.NewCond(r.mu)
	}
	// Marks already in the trace beyond base are still pending.
	for _, m := range tr.Marks {
		if !base.AtLeast(m.Cut) {
			r.marks = append(r.marks, m)
		}
	}
	return r, nil
}

// Extend applies a committed delta to the trace, advances the release
// frontier to the new last consistent cut, and wakes the workers of the
// threads whose frontier moved; no other thread has anything new to run.
//
// On a replayer that is already aborted it returns ErrReplayerAborted
// without touching the trace. If the delta's cuts have desynchronized from
// the local trace (ErrCutBeyondTrace from Apply or ConsistentCut), the
// replayer aborts itself — workers must not keep executing against a trace
// whose committed extension it can no longer follow — and the error is
// returned for the owner to resolve by re-syncing from a checkpoint.
func (r *Replayer) Extend(d *trace.Delta) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.aborted {
		return ErrReplayerAborted
	}
	if d.Rebase != nil && !d.Rebase.AtLeast(r.limit) {
		// The rebase would cut below the release frontier: workers may
		// already have executed events the new primary discarded. Only a
		// checkpoint restore can realign us.
		r.abortLocked()
		return fmt.Errorf("%w: rebase cut %v below release frontier %v",
			trace.ErrCutBeyondTrace, d.Rebase, r.limit)
	}
	if err := r.tr.Apply(d); err != nil {
		if errors.Is(err, trace.ErrCutBeyondTrace) {
			r.abortLocked()
		}
		return err
	}
	limit, err := r.tr.ConsistentCutInto(r.next, r.limit)
	if err != nil {
		r.abortLocked()
		return err
	}
	for t := range limit {
		if limit[t] > r.limit[t] {
			r.release[t].Broadcast()
		}
	}
	r.limit, r.next = limit, r.limit
	if r.ob != nil && !r.executed.AtLeast(r.limit) {
		if n := len(r.lagQ); n < maxLagQ {
			r.lagQ = slices.Grow(r.lagQ, 1)[:n+1]
			m := &r.lagQ[n]
			m.cut = append(m.cut[:0], r.limit...)
			m.at = r.e.Now()
		} else if r.ob.LagDropped != nil {
			r.ob.LagDropped.Inc()
		}
	}
	r.marks = append(r.marks, d.Marks...)
	return nil
}

// Trace returns the underlying trace. Callers must not mutate it while
// replay is running.
func (r *Replayer) Trace() *trace.Trace { return r.tr }

// Next blocks until thread t's next event is released for execution and
// returns it. ok is false if the replayer was aborted. Events beyond the
// oldest pending checkpoint mark are held back until the mark completes, so
// every worker pauses exactly at the mark's cut (§3.3).
func (r *Replayer) Next(t int32) (trace.Event, trace.EventID, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if r.aborted {
			return trace.Event{}, trace.EventID{}, false
		}
		next := r.executed[t] + 1
		if next <= r.limit[t] && !r.gatedLocked(t, next) {
			id := trace.EventID{Thread: t, Clock: next}
			return r.tr.Event(id), id, true
		}
		r.nextWaits[t]++
		r.release[t].Wait()
	}
}

// gatedLocked reports whether executing (t, clock) would cross the oldest
// pending checkpoint mark.
func (r *Replayer) gatedLocked(t int32, clock int32) bool {
	if len(r.marks) == 0 {
		return false
	}
	cut := r.marks[0].Cut
	return int(t) < len(cut) && clock > cut[t]
}

// In returns the incoming edges of an event previously returned by Next.
func (r *Replayer) In(id trace.EventID) []trace.EventID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tr.In(id)
}

// WaitSources blocks until every source event in `in` has executed. It
// returns false if the replayer was aborted. It also maintains the paper's
// "waited events" statistic: the number of events that had to wait for a
// causal edge (Fig. 7).
func (r *Replayer) WaitSources(in []trace.EventID) bool {
	if r.skipEdgeWaits {
		return true // injected bug: release before causal predecessors
	}
	if len(in) == 0 {
		if r.ob != nil {
			r.ob.Released.Inc()
		}
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	waited := false
	var start time.Duration
	for _, src := range in {
		for r.executed[src.Thread] < src.Clock {
			if r.aborted {
				return false
			}
			if !waited {
				waited = true
				start = r.e.Now()
			}
			r.perThread[src.Thread].Wait()
		}
	}
	if r.ob != nil {
		if waited {
			r.ob.Waited.Inc()
			r.ob.WaitTime.Observe(r.e.Now() - start)
		} else {
			r.ob.Released.Inc()
		}
	}
	if waited {
		r.waitedEvents++
	}
	return true
}

// Commit marks thread t's next event as executed and wakes its waiters.
// Wrappers call it after performing the real operation, so an edge wait
// completing implies the source's real effect has happened. Nothing reads
// an executed event again, so the trace prunes them chunk by chunk
// instead of holding them until the next checkpoint.
func (r *Replayer) Commit(t int32) {
	r.mu.Lock()
	r.executed[t]++
	r.tr.PruneTo(int(t), r.executed[t])
	r.replayedEvents++
	if len(r.lagQ) > 0 && r.executed.AtLeast(r.lagQ[0].cut) {
		r.retireLagLocked()
	}
	r.perThread[t].Broadcast()
	if r.progressWaiters > 0 {
		r.progress.Broadcast()
	}
	r.mu.Unlock()
}

// retireLagLocked observes the lag of every pending watermark replay has
// reached and retires them, moving the pending ones to the front and the
// retired ones, whose cut storage the next marks reuse, past the end.
func (r *Replayer) retireLagLocked() {
	q := r.lagQ
	n := 0
	for n < len(q) && r.executed.AtLeast(q[n].cut) {
		r.ob.CommitLag.Observe(r.e.Now() - q[n].at)
		n++
	}
	for i := 0; i+n < len(q); i++ {
		q[i], q[i+n] = q[i+n], q[i]
	}
	r.lagQ = q[:len(q)-n]
}

// Executed returns the per-thread executed watermarks.
func (r *Replayer) Executed() trace.Cut {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executed.Clone()
}

// Backlog returns the released events not yet executed, summed over the
// threads; 0 for a nil replayer.
func (r *Replayer) Backlog() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for t, l := range r.limit {
		if d := l - r.executed[t]; d > 0 {
			n += uint64(d)
		}
	}
	return n
}

// CaughtUp reports whether every released event has executed.
func (r *Replayer) CaughtUp() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executed.AtLeast(r.limit)
}

// WaitCaughtUp blocks until every released event has executed (used at
// promotion) or the replayer is aborted; it reports success.
func (r *Replayer) WaitCaughtUp() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.executed.AtLeast(r.limit) {
		if r.aborted {
			return false
		}
		r.waitProgressLocked()
	}
	return !r.aborted
}

// WaitExecutedAtLeast blocks until replay has executed at least cut on
// every thread — the admission gate for a follower read carrying a
// session token — or until timeout elapses or the replayer aborts. It
// reports whether the frontier was reached.
//
// env.Cond has no timed wait, so on the slow path a timer broadcasts
// progress at the deadline for the wait loop to re-check the clock; it is
// stopped when the wait ends.
func (r *Replayer) WaitExecutedAtLeast(cut trace.Cut, timeout time.Duration) bool {
	// Normalize: a token minted before a resync/rebuild can carry a cut
	// sized for a different thread count. Trailing zeros are trivially
	// covered; a non-zero entry for a thread this trace does not have can
	// never be covered, so fail fast instead of stalling until timeout.
	cut = cut.Norm()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(cut) > len(r.executed) {
		return false
	}
	if r.executed.AtLeast(cut) {
		return true // fast path: no timer, no waiting
	}
	if r.aborted || timeout <= 0 {
		return false
	}
	deadline := r.e.Now() + timeout
	defer r.e.AfterFunc(timeout, func() {
		r.mu.Lock()
		r.progress.Broadcast()
		r.mu.Unlock()
	}).Stop()
	for !r.executed.AtLeast(cut) {
		if r.aborted || r.e.Now() >= deadline {
			return false
		}
		r.waitProgressLocked()
	}
	return true
}

// PendingMark returns the oldest pending checkpoint mark, if any.
func (r *Replayer) PendingMark() (trace.Mark, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.marks) == 0 {
		return trace.Mark{}, false
	}
	return r.marks[0], true
}

// WaitMarkReached blocks until replay has executed exactly up to the given
// mark's cut on every thread (all workers paused at the mark), or the
// replayer is aborted; it reports success.
func (r *Replayer) WaitMarkReached(m trace.Mark) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.executed.AtLeast(m.Cut) {
		if r.aborted {
			return false
		}
		r.waitProgressLocked()
	}
	return !r.aborted
}

// waitProgressLocked waits for the next watermark advance, counted so that
// Commit broadcasts only when somebody listens.
func (r *Replayer) waitProgressLocked() {
	r.progressWaiters++
	r.progress.Wait()
	r.progressWaiters--
}

// CompleteMark retires the oldest pending mark (which must match id) and
// releases the workers held at its cut.
func (r *Replayer) CompleteMark(id uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.marks) == 0 || r.marks[0].ID != id {
		panic("sched: CompleteMark out of order")
	}
	r.marks = r.marks[1:]
	r.wakeAllLocked()
}

// Abort unblocks every waiter; Next and WaitSources return false.
func (r *Replayer) Abort() {
	r.mu.Lock()
	r.abortLocked()
	r.mu.Unlock()
}

// Aborted reports whether the replayer has been aborted.
func (r *Replayer) Aborted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.aborted
}

func (r *Replayer) abortLocked() {
	r.aborted = true
	r.wakeAllLocked()
	r.progress.Broadcast()
	for _, c := range r.perThread {
		c.Broadcast()
	}
}

// wakeAllLocked wakes every thread's Next: a completed mark may release
// events on any thread, and an abort ends them all.
func (r *Replayer) wakeAllLocked() {
	for _, c := range r.release {
		c.Broadcast()
	}
}

// ReqBody returns the payload of request idx from the trace's table.
func (r *Replayer) ReqBody(idx uint64) (trace.Req, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tr.Req(idx)
}

// LiveReqs returns the requests a checkpoint at cut must carry: those whose
// completion is not inside cut (see trace.Trace.LiveReqs).
func (r *Replayer) LiveReqs(cut trace.Cut) []trace.IndexedReq {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tr.LiveReqs(cut)
}

// ForgetThrough garbage-collects the trace prefix covered by a completed
// checkpoint (§3.3), clamped to what replay has already executed so no
// future read lands in the collected region.
func (r *Replayer) ForgetThrough(cut trace.Cut) {
	r.mu.Lock()
	defer r.mu.Unlock()
	clamped := cut.Clone()
	for t := range clamped {
		if t < len(r.executed) && r.executed[t] < clamped[t] {
			clamped[t] = r.executed[t]
		}
	}
	r.tr.Forget(clamped, r.tr.LiveLowWater(clamped))
}

// Stats returns cumulative replay statistics: total events replayed and how
// many of them blocked on a causal edge.
func (r *Replayer) Stats() (replayed, waited uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.replayedEvents, r.waitedEvents
}
