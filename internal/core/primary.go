package core

import (
	"errors"
	"slices"
	"time"

	"rex/internal/env"
	"rex/internal/overload"
	"rex/internal/readpath"
	"rex/internal/trace"
)

var errNotPrimaryNow = errors.New("rex: not primary")

// primaryState is what a replica keeps while it is the primary, and only
// then. promote builds it at the promotion cut; demotion, fault, removal
// and rebuild fail its waiters and drop it whole, so no field of it needs
// resetting by hand. Guarded by Replica.mu.
type primaryState struct {
	tr            *trace.Trace // committed trace
	lcc           trace.Cut    // its last consistent cut; releases responses; never written in place
	pendingRebase trace.Cut    // promotion cut, until the first delta carries it (§3.2)

	pending     map[uint64]*pendingReq // admitted requests by trace index
	outstanding int                    // admitted but unanswered
	releasable  []uint64               // releaseResponsesLocked's scratch
	workQ       []reqWork              // dispatch queue of an unclassified state machine

	// Conflict-class dispatch (classified state machines only; see
	// nextClassWork): per-thread class queues, queued catch-all barriers,
	// the in-flight count a barrier drains on, each thread's last req-end
	// and the after-barrier edge its next dispatch carries.
	classQ          [][]reqWork
	barrierQ        []reqWork
	classDispatched int
	classLastEnd    []trace.EventID
	classAfter      []trace.EventID

	// pendingBarriers maps a linearizable-read barrier id to the cap-1
	// channel its reader waits on (read.go).
	pendingBarriers map[uint64]env.Chan

	proposing  bool          // a delta is in consensus
	proposedAt time.Duration // since when, for propose→commit

	// Checkpoint pause (initiateCheckpoint): request workers first, then
	// timer threads (§3.3). Mark ids are markBase plus a per-term counter.
	ckPauseWorkers bool
	ckPauseTimers  bool
	ckPausedW      int
	ckPausedT      int
	markBase       uint64
	nextMarkID     uint64

	reconfigInflight bool // a membership change is proposed, not yet applied
	pendingPromote   int  // learner to promote once caught up (-1: none)
}

// newPrimaryStateLocked starts a term as primary for incarnation inc at
// the promotion cut, over the committed trace tr already truncated to it.
func (r *Replica) newPrimaryStateLocked(inc *incarnation, tr *trace.Trace, cut trace.Cut) *primaryState {
	p := &primaryState{
		tr:              tr,
		lcc:             cut.Clone(),
		pendingRebase:   cut.Clone(),
		pending:         make(map[uint64]*pendingReq),
		pendingBarriers: make(map[uint64]env.Chan),
		// Mark ids must be unique across primaries (they key snapshots):
		// fold in the promotion instance and replica id.
		markBase:       (r.applied << 20) | uint64(r.cfg.ID)<<12,
		pendingPromote: -1,
	}
	if inc.classifier != nil {
		// Event ids from the previous record epoch are meaningless in this
		// one, so the per-thread edge bookkeeping starts empty: everything
		// up to the promotion cut is ordered by the trace base instead.
		n := r.cfg.Workers
		p.classQ = make([][]reqWork, n)
		p.classLastEnd = make([]trace.EventID, n)
		p.classAfter = make([]trace.EventID, n)
		// Handlers carried across the mode change (req-begin inside the
		// promotion cut, req-end still to come) escape nextWork's dispatch
		// accounting; seed the in-flight counter with them so a catch-all
		// barrier waits for their completion. finishCarried decrements it
		// as they finish.
		p.classDispatched = tr.OpenRequests()
	}
	// A change proposed by the previous primary either committed (we saw it
	// in the stream) or died with it. Any learner still in the membership
	// is re-adopted so its promotion survives the failover.
	if len(r.member.Learners) > 0 {
		p.pendingPromote = r.member.Learners[0]
	}
	return p
}

// fail wakes every waiter: admitted requests (even completed but
// unreleased ones: their commit never covered them here, so the client
// must retry at the new primary, and dedup makes the retry idempotent),
// through their reply slot's failed flag so the slot can be reused, and
// barrier readers, whose channels it closes: they lose their leadership
// proof and retry instead of waiting out the timeout. Nothing is left
// pending, outstanding or in consensus, which is what Stop, the one
// caller that keeps the state, reports afterwards.
func (p *primaryState) fail() {
	// Index and id order, not map order: each wake-up releases a
	// submitter or a reader, and the simulator must see the same wake-ups
	// on every run.
	for _, idx := range sortedKeys(p.pending) {
		p.pending[idx].wake(true)
		delete(p.pending, idx)
	}
	for _, id := range sortedKeys(p.pendingBarriers) {
		p.pendingBarriers[id].Close()
		delete(p.pendingBarriers, id)
	}
	p.outstanding = 0
	p.proposing = false
}

// sortedKeys returns m's keys in increasing order.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// fold applies a committed delta to the primary's trace, advances the
// last consistent cut and forgets what lies below it. The primary reads
// its committed trace only to advance that cut, which starts from the
// previous one, and never reads request bodies from it, so it keeps no
// more than the events past the cut.
func (p *primaryState) fold(d *trace.Delta) error {
	if err := p.tr.Apply(d); err != nil {
		return err
	}
	lcc, err := p.tr.ConsistentCut(p.lcc)
	if err != nil {
		return err
	}
	p.lcc = lcc
	p.tr.Forget(lcc, p.tr.ReqEnd())
	return nil
}

// ErrStaleSeq is returned for a client sequence number below the newest
// one already answered: the request can never succeed, so clients must not
// retry it.
var ErrStaleSeq = errors.New("rex: stale client sequence number")

// Submit executes one client request through the replication protocol and
// returns its response. It blocks until the trace containing the request's
// completion has committed (§2.1: the primary responds after consensus on
// the trace, without waiting for secondary replay). client/seq provide
// at-most-once semantics across retries and failovers.
func (r *Replica) Submit(client, seq uint64, body []byte) ([]byte, error) {
	resp, _, err := r.SubmitToken(client, seq, body)
	return resp, err
}

// SubmitToken is Submit returning a session token alongside the response:
// the committed frontier (epoch, applied instance, consistent cut) that
// covers the write. A client presenting the token with a session-level
// read is guaranteed to observe this write (read path, DESIGN.md §11).
func (r *Replica) SubmitToken(client, seq uint64, body []byte) ([]byte, readpath.Token, error) {
	return r.SubmitTokenDeadline(client, seq, body, 0)
}

// SubmitTokenDeadline is SubmitToken with a propagated deadline budget:
// the remaining time the client is willing to wait, 0 for none. The
// budget is only consulted *ahead of* trace admission — an expired
// request fails fast with overload.ErrDeadlineExceeded and provably
// never executed; once admitted into the trace it must run to
// completion regardless (dropping it would corrupt replay), so the call
// then blocks until release as before.
//
// The same pre-admission gate is where overload sheds happen: an
// arrival that would have to queue behind a full gate is refused with
// overload.Shed (carrying a retry-after hint) when the wait queue hit
// its hard bound or the CoDel controller detected a standing queue
// (DESIGN.md "Overload & admission control").
func (r *Replica) SubmitTokenDeadline(client, seq uint64, body []byte, budget time.Duration) ([]byte, readpath.Token, error) {
	r.mu.Lock()
	entered := r.e.Now()
	var deadline time.Duration
	if budget > 0 {
		deadline = entered + budget
	}
	waiting, lagWaited := false, false
	var prim *primaryState
	var timer env.Timer // the deadline's wake-up while waiting
	leaveWait := func() {
		if waiting {
			waiting = false
			r.admWaiters--
			r.obs.admissionWaiters.Set(int64(r.admWaiters))
			if timer != nil {
				timer.Stop()
			}
		}
	}
	for {
		if r.stopped || r.faultErr != nil {
			leaveWait()
			r.mu.Unlock()
			return nil, readpath.Token{}, ErrStopped
		}
		if prim = r.prim; prim == nil {
			leader := r.curLeader
			leaveWait()
			r.mu.Unlock()
			return nil, readpath.Token{}, ErrNotPrimary{Leader: leader}
		}
		if e, ok := r.dedup[client]; ok && seq <= e.seq {
			resp := e.resp
			tok := r.tokenLocked()
			leaveWait()
			r.mu.Unlock()
			if seq < e.seq {
				return nil, readpath.Token{}, ErrStaleSeq
			}
			// The duplicate's original commit is at or below the current
			// committed frontier, so today's token still covers it.
			return resp, tok, nil
		}
		now := r.e.Now()
		if deadline > 0 && now >= deadline {
			leaveWait()
			r.obs.deadlineExceeded.Inc()
			r.mu.Unlock()
			return nil, readpath.Token{}, overload.ErrDeadlineExceeded
		}
		// Flow control: bound speculation depth and wait for lagging live
		// secondaries (§6.2).
		lagging := r.throttledLocked()
		if prim.outstanding < r.cfg.MaxOutstanding && !lagging {
			break
		}
		// The gate is full. Shed instead of queueing when the wait queue
		// hit its hard bound or the controller says the queue is standing.
		if shed, ra := r.shouldShedSubmitLocked(now); shed {
			leaveWait()
			r.obs.shedTotal.Inc()
			r.obs.shedWrites.Inc()
			r.obs.admissionPressure.Set(int64(r.pressureLocked()))
			r.mu.Unlock()
			return nil, readpath.Token{}, overload.Shed{RetryAfter: ra}
		}
		if !waiting {
			waiting = true
			r.admWaiters++
			r.obs.admissionWaiters.Set(int64(r.admWaiters))
			if deadline > 0 {
				timer = r.condTimer(deadline)
			}
		}
		if lagging && !lagWaited {
			lagWaited = true
			r.obs.admissionThrottled.Inc()
		}
		r.cond.Wait()
	}
	if waiting {
		leaveWait()
		r.obs.admissionWait.Observe(r.e.Now() - entered)
	}
	var class uint32
	classifier := r.inc.classifier
	if classifier != nil {
		class = classifier.ClassifyConflict(body)
	}
	idx := r.inc.rt.Recorder().AddReq(trace.Req{Client: client, Seq: seq, Class: class, Body: body})
	p := r.replySlot()
	p.client, p.seq, p.at = client, seq, r.e.Now()
	r.obs.reqsAdmitted.Inc()
	prim.pending[idx] = p
	prim.outstanding++
	work := reqWork{idx: idx, body: body, class: class}
	switch {
	case classifier == nil:
		prim.workQ = append(prim.workQ, work)
		r.workReady[0].Signal()
	case class == ConflictAll:
		prim.barrierQ = append(prim.barrierQ, work)
		r.workReady[0].Broadcast()
	default:
		// Deterministic class → thread assignment: same-class requests are
		// serialized by program order on one thread, which is what lets
		// class-owned lock events be elided from the trace.
		t := int(class % uint32(r.cfg.Workers))
		prim.classQ[t] = append(prim.classQ[t], work)
		r.workReady[t].Broadcast()
	}
	r.mu.Unlock()
	return r.awaitReply(p)
}

// replySlot returns a write's reply slot from the replica's free list, so
// a write allocates neither a reply channel nor a boxed result.
func (r *Replica) replySlot() *pendingReq {
	if v, ok, _ := r.replySlots.TryRecv(); ok {
		return v.(*pendingReq)
	}
	return &pendingReq{ch: r.e.NewChan(1)}
}

// awaitReply waits until p is released or failed, then gives the slot
// back to the free list.
func (r *Replica) awaitReply(p *pendingReq) ([]byte, readpath.Token, error) {
	p.ch.Recv()
	resp, tok, failed := p.resp, p.tok, p.failed
	*p = pendingReq{ch: p.ch}
	r.replySlots.TrySend(p)
	if failed {
		return nil, readpath.Token{}, ErrStopped
	}
	return resp, tok, nil
}

// tokenLocked builds a session token from the replica's committed
// frontier. Tokens must never include speculative state: on the primary
// that is the last consistent cut of the committed trace (prim.lcc), on a
// secondary the replayed-and-executed cut — both only ever cover
// consensus-committed effects, so a token survives any failover. The
// primary's token shares lcc, which fold replaces rather than writes.
func (r *Replica) tokenLocked() readpath.Token {
	tok := readpath.Token{Group: r.cfg.Group, Epoch: r.member.Epoch, Applied: r.applied}
	if r.prim != nil {
		tok.Cut = r.prim.lcc
	} else if rep := r.replayerOfLocked(); rep != nil {
		tok.Cut = rep.Executed()
	}
	return tok
}

// throttledLocked implements the primary's aggressive flow control: it
// reports true while any recently-heard-from secondary is too far behind,
// either in committed instances applied (as measured when its last report
// arrived) or in replay backlog. A silent peer (crashed or partitioned)
// stops counting after a grace period so a dead replica cannot stall the
// cluster.
func (r *Replica) throttledLocked() bool {
	now := r.e.Now()
	stale := 8 * r.cfg.StatusEvery
	// An any-of over the peers, with no side effects: map order cannot
	// change the answer.
	for id, st := range r.peers {
		if id == r.cfg.ID {
			continue
		}
		// Only voters gate admission: a learner is expected to lag while it
		// catches up (its promotion is what's gated on lag), and a removed
		// node's last report must not throttle the cluster it left.
		if !r.member.IsVoter(id) {
			continue
		}
		if now-st.at > stale {
			continue
		}
		if st.lag > lagLimitInstances {
			return true
		}
		if st.backlog > r.cfg.LagLimitEvents {
			return true
		}
	}
	return false
}

// shouldShedSubmitLocked decides whether a write arrival that would
// otherwise wait at a full admission gate is shed instead. Two
// triggers: the hard waiter bound (the wait queue — and the memory
// behind it — stays bounded no matter what), and the CoDel controller's
// drop schedule while it observes a standing queue.
func (r *Replica) shouldShedSubmitLocked(now time.Duration) (bool, time.Duration) {
	if r.admWaiters >= r.cfg.MaxAdmissionWaiters {
		return true, r.retryAfterLocked()
	}
	if r.admCtrl != nil && r.admCtrl.ShouldShed(now) {
		return true, r.admCtrl.RetryAfter()
	}
	return false, 0
}

// retryAfterLocked is the retry-after hint attached to sheds.
func (r *Replica) retryAfterLocked() time.Duration {
	if r.admCtrl != nil {
		return r.admCtrl.RetryAfter()
	}
	return r.cfg.AdmissionInterval
}

// pressureLocked maps the gate's state to a degradation level
// (overload.Pressure*): the controller's view, escalated to critical
// when the wait queue is halfway to its hard bound.
func (r *Replica) pressureLocked() int {
	p := overload.PressureNone
	if r.admCtrl != nil {
		p = r.admCtrl.Pressure()
	}
	if r.admWaiters >= (r.cfg.MaxAdmissionWaiters+1)/2 {
		p = overload.PressureCritical
	}
	return p
}

// nextWork blocks until there is a request for worker thread ti of
// incarnation inc to run, honoring checkpoint pauses. Returns ok=false
// when the worker's incarnation ended or its term as primary did
// (demotion or shutdown).
func (r *Replica) nextWork(inc *incarnation, ti int) (w reqWork, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ready := r.workReady[0] // shared by an unclassified state machine's workers
	if inc.classifier != nil {
		ready = r.workReady[ti]
	}
	for {
		p := r.prim
		if r.inc != inc || r.stopped || p == nil {
			return reqWork{}, false
		}
		if p.ckPauseWorkers {
			p.ckPausedW++
			r.cond.Broadcast() // initiateCheckpoint counts paused workers
			for p.ckPauseWorkers && r.inc == inc && !r.stopped {
				ready.Wait()
			}
			p.ckPausedW--
			continue
		}
		if inc.classifier == nil {
			if len(p.workQ) > 0 {
				return popWork(&p.workQ), true
			}
		} else if w, ok := p.nextClassWork(ti); ok {
			if w.class == ConflictAll && len(p.barrierQ) == 0 {
				// The last queued barrier left: classified work queued
				// behind it may run.
				for t, q := range p.classQ {
					if t != ti && len(q) > 0 {
						r.workReady[t].Broadcast()
					}
				}
			}
			return w, true
		}
		r.workWaits[ti]++
		ready.Wait()
	}
}

// nextClassWork is conflict-class dispatch for one worker thread.
// Catch-all (class 0) requests act as admission barriers: while any is
// queued, classified dispatch halts; once the in-flight count drains to
// zero, thread 0 runs the catch-all with in-edges from every other thread's
// last req-end, so replay serializes it against everything dispatched
// before it. The first classified request dispatched to a thread after a
// barrier carries an edge from the barrier's req-end (classAfter);
// everything later on that thread is ordered behind it by program order.
func (p *primaryState) nextClassWork(ti int) (reqWork, bool) {
	if len(p.barrierQ) > 0 {
		if ti != 0 || p.classDispatched > 0 {
			return reqWork{}, false
		}
		w := popWork(&p.barrierQ)
		for t, end := range p.classLastEnd {
			if t != ti && end != (trace.EventID{}) {
				w.in = append(w.in, end)
			}
		}
		p.classDispatched++
		return w, true
	}
	if len(p.classQ[ti]) == 0 {
		return reqWork{}, false
	}
	w := popWork(&p.classQ[ti])
	if a := p.classAfter[ti]; a != (trace.EventID{}) {
		w.in = append(w.in, a)
		p.classAfter[ti] = trace.EventID{}
	}
	p.classDispatched++
	return w, true
}

// popWork removes and returns the head of a non-empty queue, moving the
// rest down so that the queue keeps reusing its array.
func popWork(q *[]reqWork) reqWork {
	w := (*q)[0]
	n := copy(*q, (*q)[1:])
	(*q)[n] = reqWork{}
	*q = (*q)[:n]
	return w
}

// pauseGate is the checkpoint barrier for timer threads: it joins a
// phase-2 pause in progress and returns when released.
func (r *Replica) pauseGate(inc *incarnation) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.prim
	if p == nil || !p.ckPauseTimers || r.inc != inc || r.stopped {
		return
	}
	p.ckPausedT++
	r.cond.Broadcast()
	for p.ckPauseTimers && r.inc == inc && !r.stopped {
		r.cond.Wait()
	}
	p.ckPausedT--
}

// completeLocal records a finished request on the primary; the response is
// released to the client once the committed trace's last consistent cut
// covers the req-end event.
func (r *Replica) completeLocal(inc *incarnation, work reqWork, resp []byte, end trace.EventID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	prim := r.prim
	if r.inc != inc || prim == nil {
		return // a rebuild superseded this incarnation, or demoted meanwhile; client will retry
	}
	if inc.classifier != nil && prim.noteClassComplete(end, work.class == ConflictAll) {
		r.workReady[0].Broadcast()
	}
	p, ok := prim.pending[work.idx]
	if !ok {
		return // failed by a shutdown
	}
	p.resp = resp
	p.end = end
	p.done = true
	r.dedup[p.client] = dedupEntry{seq: p.seq, resp: resp}
	r.stats.ReqsCompleted++
	r.obs.reqsCompleted.Inc()
	r.obs.execLatency.Observe(r.e.Now() - p.at)
	if prim.lcc.Covers(end) {
		r.releaseOneLocked(prim, work.idx, p)
	}
}

// noteClassComplete maintains the conflict-class dispatch bookkeeping
// when a request finishes on a worker thread: the thread's last req-end
// (barrier in-edges point at these), the in-flight count the barrier drains
// on, and — when the finished request was itself a catch-all — the
// after-barrier edge every other thread's next dispatch must carry. It
// reports whether a queued barrier may now run, which the caller tells
// worker 0.
func (p *primaryState) noteClassComplete(end trace.EventID, barrier bool) (barrierReady bool) {
	t := int(end.Thread)
	if t >= 0 && t < len(p.classLastEnd) {
		p.classLastEnd[t] = end
	}
	if p.classDispatched > 0 {
		p.classDispatched--
	}
	if barrier {
		for i := range p.classAfter {
			if i != t {
				p.classAfter[i] = end
			}
		}
	}
	return len(p.barrierQ) > 0 && p.classDispatched == 0
}

func (r *Replica) releaseOneLocked(prim *primaryState, idx uint64, p *pendingReq) {
	now := r.e.Now()
	sojourn := now - p.at
	r.obs.reqLatency.Observe(sojourn)
	if r.admCtrl != nil {
		// The admission→release sojourn is the controller's signal: a
		// floor above target for a full interval means a standing queue.
		r.admCtrl.OnSojourn(now, sojourn)
		r.obs.admissionPressure.Set(int64(r.pressureLocked()))
	}
	p.tok = r.tokenLocked()
	p.wake(false)
	delete(prim.pending, idx)
	prim.outstanding--
	r.cond.Broadcast()
}

// releaseResponsesLocked flushes every pending response now covered by the
// committed last consistent cut, in trace index order so that the
// submitters wake in the same order on every run.
func (r *Replica) releaseResponsesLocked(prim *primaryState) {
	ready := prim.releasable[:0]
	for idx, p := range prim.pending {
		if p.done && prim.lcc.Covers(p.end) {
			ready = append(ready, idx)
		}
	}
	slices.Sort(ready)
	for _, idx := range ready {
		r.releaseOneLocked(prim, idx, prim.pending[idx])
	}
	prim.releasable = ready[:0]
}

// proposePump collects the recorder's growth and proposes it (§3.1). It is
// demand-driven rather than fixed-cadence: the recorder wakes it on the
// first event/request after a drain, applyLoop wakes it when its open
// instance commits, and proposeTicker wakes it every
// proposeEvery as the max-delay backstop. It also carries the one-time
// rebase marker after a promotion.
func (r *Replica) proposePump() {
	var d trace.Delta // collect scratch, reused by every drain
	for {
		if _, ok := r.proposeWake.Recv(); !ok {
			return
		}
		r.pumpDrain(&d)
	}
}

// pumpDrain proposes the recorder's backlog as one delta unless a delta
// is already in consensus: Rex keeps at most one active instance (§3.1),
// so the pump waits for that commit to wake it again. When idle the delta
// goes out immediately (sub-cap commit latency at low load). Re-collecting
// until empty also closes the race with the recorder's edge-triggered
// notify (an append landing between the drain and the re-arm is picked up
// here). d is the pump's scratch delta.
func (r *Replica) pumpDrain(d *trace.Delta) {
	for {
		r.mu.Lock()
		p := r.prim
		if r.stopped || p == nil || p.proposing {
			r.mu.Unlock()
			return
		}
		now := r.e.Now()
		r.inc.rt.Recorder().CollectInto(d)
		if p.pendingRebase != nil {
			d.Rebase = p.pendingRebase
			p.pendingRebase = nil
		}
		if d.Empty() {
			r.mu.Unlock()
			return
		}
		p.proposing = true
		p.proposedAt = now
		r.mu.Unlock()
		val := d.EncodeBytesHint(r.lastDeltaBytes)
		r.lastDeltaBytes = len(val)
		r.obs.deltaBytes.Observe(uint64(len(val)))
		r.obs.deltaEvents.Observe(uint64(d.EventCount()))
		// val holds everything d said; drop d's hold on the request
		// bodies and mark cuts before the recorder refills its storage.
		clear(d.Reqs)
		clear(d.Marks)
		r.node.Propose(val)
	}
}

// proposeTicker is the pump's liveness backstop: whatever edge-triggered
// wake-ups were deferred or lost, pending growth is proposed at most
// proposeEvery late.
func (r *Replica) proposeTicker() {
	for {
		if !r.sleepInterruptible(proposeEvery) {
			return
		}
		r.wakePump()
	}
}

// initiateCheckpoint pauses every worker and timer thread at a clean
// boundary, records the cut as a checkpoint mark in the trace, and resumes
// (§3.3). The snapshot itself is taken by a designated secondary when its
// replay reaches the cut.
func (r *Replica) initiateCheckpoint() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.prim
	if p == nil || r.stopped {
		return errNotPrimaryNow
	}
	if p.ckPauseWorkers {
		return errors.New("rex: checkpoint already in progress")
	}
	rt := r.inc.rt
	total := r.cfg.Workers + r.cfg.Timers
	pauseStart := r.e.Now()
	// Phase 1: pause request workers at request boundaries. Timer threads
	// keep running so background tasks can unblock stalled handlers.
	p.ckPauseWorkers = true
	r.wakeAllLocked()
	for p.ckPausedW < r.cfg.Workers && r.prim == p && !r.stopped {
		r.cond.Wait()
	}
	// Phase 2: pause timer threads at firing boundaries.
	p.ckPauseTimers = true
	r.cond.Broadcast()
	for p.ckPausedT < r.cfg.Timers && r.prim == p && !r.stopped {
		r.cond.Wait()
	}
	if r.prim != p || r.stopped {
		p.ckPauseWorkers = false
		p.ckPauseTimers = false
		r.wakeAllLocked()
		return errNotPrimaryNow
	}
	cut := make(trace.Cut, total)
	for i := 0; i < total; i++ {
		cut[i] = rt.Worker(i).Clock()
	}
	p.nextMarkID++
	id := p.markBase + p.nextMarkID
	rt.Recorder().AddMark(trace.Mark{ID: id, Cut: cut})
	// Reset the log-growth floor now, not when the mark commits, so the
	// floor does not fire again meanwhile.
	r.logBytes = 0
	p.ckPauseWorkers = false
	p.ckPauseTimers = false
	r.wakeAllLocked()
	r.obs.ckptPause.Observe(r.e.Now() - pauseStart)
	r.logf("checkpoint mark %d at cut %v", id, cut)
	return nil
}
