package core

import (
	"fmt"
	"time"

	"rex/internal/overload"
	"rex/internal/readpath"
	"rex/internal/reconfig"
)

// The consistent read path (DESIGN.md §11).
//
// QueryLevel serves a read at one of readpath's three consistency levels.
// Writes never wait for reads; reads wait only on the frontier they need:
//
//   - Linearizable (primary only): execute the query against the
//     primary's state, then (1) drain — wait until every write the query
//     may have observed has committed and released — and (2) confirm
//     leadership: the quorum read lease, when live, proves no other
//     primary can have committed writes this one missed, at zero
//     consensus cost; otherwise an id-carrying barrier value is pushed
//     through consensus and the read completes when this replica applies
//     it. Both legs are bounded by ReadWaitTimeout.
//   - Session: a secondary first waits until its replayed execution
//     frontier covers the client's token cut (read-your-writes /
//     monotonic reads); the primary's state covers every committed token
//     by construction. The response carries a refreshed token.
//   - Eventual: served immediately from local replayed state.
//
// Secondaries only serve queries the state machine classifies as
// QueryFollowerOK (default-deny: an unclassified query is primary-only,
// because a query with side effects executed outside replay would fork
// the replica's state from the committed trace).

// QueryLevel executes the read-only query q at the requested consistency
// level. tok is the client's session token (zero for none); the returned
// token reflects the state the read observed and must be carried into the
// client's next session read.
func (r *Replica) QueryLevel(level readpath.Level, tok readpath.Token, q []byte) ([]byte, readpath.Token, error) {
	if !level.Valid() {
		return nil, tok, fmt.Errorf("rex: invalid consistency level %d", uint8(level))
	}
	r.mu.Lock()
	if r.stopped || r.faultErr != nil || r.removed {
		r.mu.Unlock()
		return nil, tok, ErrStopped
	}
	primary := r.prim != nil
	leader := r.curLeader
	var sm StateMachine
	if r.inc != nil {
		sm = r.inc.sm
	}
	pressure := overload.PressureNone
	retryAfter := time.Duration(0)
	if primary {
		pressure = r.pressureLocked()
		retryAfter = r.retryAfterLocked()
	}
	r.mu.Unlock()

	if !primary {
		if level == readpath.Linearizable {
			return nil, tok, ErrNotPrimary{Leader: leader}
		}
		if classifyQuery(sm, q) != QueryFollowerOK {
			return nil, tok, readpath.ErrPrimaryOnly
		}
		return r.followerRead(level, tok, q)
	}
	// Graceful degradation by consistency level (DESIGN.md "Overload &
	// admission control"): at critical pressure every read is shed
	// before doing any work; at elevated pressure the weakest levels
	// shed first while linearizable reads proceed (lease-only — see
	// linearizableRead) and writes keep the remaining capacity.
	if pressure >= overload.PressureCritical ||
		(pressure >= overload.PressureElevated && level != readpath.Linearizable) {
		r.obs.shedTotal.Inc()
		r.obs.shedReads.Inc()
		return nil, tok, overload.Shed{RetryAfter: retryAfter}
	}
	if level == readpath.Linearizable {
		return r.linearizableRead(q, pressure)
	}
	// Session/eventual on the primary: its state covers every committed
	// frontier any token can describe, so serve immediately.
	resp, err := r.runQuery(q)
	if err != nil {
		return nil, tok, err
	}
	r.mu.Lock()
	out := r.tokenLocked()
	r.mu.Unlock()
	return resp, out.Merge(tok), nil
}

// classifyQuery applies the default-deny read/write classification: only
// state machines that implement QueryClassifier and answer QueryFollowerOK
// may have q served by a secondary.
func classifyQuery(sm StateMachine, q []byte) QueryClass {
	if qc, ok := sm.(QueryClassifier); ok {
		return qc.ClassifyQuery(q)
	}
	return QueryPrimaryOnly
}

// followerRead serves a session/eventual read on a secondary: wait for the
// token's frontier if the level demands it, query replayed state, refresh
// the token.
func (r *Replica) followerRead(level readpath.Level, tok readpath.Token, q []byte) ([]byte, readpath.Token, error) {
	// A secondary whose replay backlog is past the lag limit sheds weak
	// reads: serving ever-staler state only costs CPU the replayer needs
	// for catch-up, and session reads would mostly time out on the
	// frontier wait anyway.
	if bl := r.replayBacklog(); bl > r.cfg.LagLimitEvents {
		r.obs.shedTotal.Inc()
		r.obs.shedReads.Inc()
		return nil, tok, overload.Shed{RetryAfter: r.cfg.AdmissionInterval}
	}
	if level == readpath.Session && !tok.Zero() {
		if tok.Group != r.cfg.Group {
			return nil, tok, fmt.Errorf("rex: session token for group %d presented to group %d", tok.Group, r.cfg.Group)
		}
		if len(tok.Cut) > 0 {
			r.mu.Lock()
			rep := r.replayerOfLocked()
			r.mu.Unlock()
			if rep == nil {
				return nil, tok, ErrStopped
			}
			start := r.e.Now()
			if !rep.WaitExecutedAtLeast(tok.Cut, r.cfg.ReadWaitTimeout) {
				r.obs.readTimeouts.Inc()
				return nil, tok, readpath.ErrFrontierWait
			}
			if wait := r.e.Now() - start; wait > 0 {
				r.obs.readWait.Observe(wait)
			}
		}
	}
	resp, err := r.runQuery(q)
	if err != nil {
		return nil, tok, err
	}
	r.obs.followerReads.Inc()
	r.mu.Lock()
	out := r.tokenLocked()
	r.mu.Unlock()
	// Merge keeps the refreshed token monotone even when the local applied
	// count trails the token's (meta instances advance applied without
	// moving the cut).
	return resp, out.Merge(tok), nil
}

// linearizableRead runs on the primary: query speculative state, drain
// the writes the query may have observed, then prove no newer primary
// exists — via the lease when live, via a consensus barrier otherwise.
// Under elevated pressure the consensus-barrier fallback is disabled:
// the read is served lease-only or shed, keeping read confirmations out
// of a propose pipeline that is already the bottleneck.
func (r *Replica) linearizableRead(q []byte, pressure int) ([]byte, readpath.Token, error) {
	resp, err := r.runQuery(q)
	if err != nil {
		return nil, readpath.Token{}, err
	}
	start := r.e.Now()
	deadline := start + r.cfg.ReadWaitTimeout
	if err := r.drainObservedWrites(deadline); err != nil {
		return nil, readpath.Token{}, err
	}
	if r.node.LeaseValid() {
		// The quorum lease guarantees no competing election completed:
		// every write this read could have missed would have to come from
		// a leader that cannot exist yet.
		r.obs.leaseReads.Inc()
	} else {
		if pressure >= overload.PressureElevated {
			r.obs.degradedReads.Inc()
			r.obs.shedTotal.Inc()
			r.obs.shedReads.Inc()
			r.mu.Lock()
			ra := r.retryAfterLocked()
			r.mu.Unlock()
			return nil, readpath.Token{}, overload.Shed{RetryAfter: ra}
		}
		if err := r.readBarrier(deadline); err != nil {
			return nil, readpath.Token{}, err
		}
		r.obs.confirmReads.Inc()
	}
	if wait := r.e.Now() - start; wait > 0 {
		r.obs.readWait.Observe(wait)
	}
	r.mu.Lock()
	tok := r.tokenLocked()
	r.mu.Unlock()
	return resp, tok, nil
}

// drainObservedWrites blocks until every request pending at the moment
// the query returned has left the pending set — i.e. every write whose
// speculative effects the query may have observed has committed (or the
// primary was deposed and the client must retry). The snapshot is taken
// AFTER the query executed: anything admitted later cannot have been
// observed and must not delay the read.
func (r *Replica) drainObservedWrites(deadline time.Duration) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.prim
	if p == nil || len(p.pending) == 0 {
		return nil
	}
	// The walks below collect a set and ask whether any member is still
	// pending: map order cannot change either answer.
	observed := make([]uint64, 0, len(p.pending))
	for idx := range p.pending {
		observed = append(observed, idx)
	}
	r.spawnCondWatchdog(deadline)
	for {
		if r.stopped || r.faultErr != nil {
			return ErrStopped
		}
		if r.prim != p {
			return ErrNotPrimary{Leader: r.curLeader}
		}
		live := false
		for _, idx := range observed {
			if _, ok := p.pending[idx]; ok {
				live = true
				break
			}
		}
		if !live {
			return nil
		}
		if r.e.Now() >= deadline {
			r.obs.readTimeouts.Inc()
			return readpath.ErrLeaseWait
		}
		r.cond.Wait()
	}
}

// spawnCondWatchdog broadcasts r.cond once deadline passes, so a
// cond-based wait can time out (env.Cond has no timed wait). Spurious
// wake-ups are harmless — every waiter re-checks its predicate.
func (r *Replica) spawnCondWatchdog(deadline time.Duration) {
	r.e.Go(fmt.Sprintf("rex-%d-read-watchdog", r.cfg.ID), func() {
		if d := deadline - r.e.Now(); d > 0 {
			r.e.Sleep(d)
		}
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	})
}

// readBarrier proposes an id-carrying padding value through consensus and
// waits for this replica to apply it. The id is unique cluster-wide
// (replica id in the high bits, a never-reset counter below), and
// applyMeta signals only an exact id match — a high-water or any-barrier
// match would let another primary's barrier confirm a deposed reader.
// Committing our own barrier under our own ballot proves no newer leader
// completed an election before the barrier's quorum accepted it, so no
// write this read missed can have committed before the read's
// linearization point.
func (r *Replica) readBarrier(deadline time.Duration) error {
	r.mu.Lock()
	p := r.prim
	if r.stopped || p == nil {
		leader := r.curLeader
		r.mu.Unlock()
		if leader >= 0 {
			return ErrNotPrimary{Leader: leader}
		}
		return ErrStopped
	}
	r.nextBarrier++
	id := uint64(r.cfg.ID)<<48 | r.nextBarrier
	ch := r.e.NewChan(1)
	p.pendingBarriers[id] = ch
	r.mu.Unlock()

	// A deposed node's Propose is dropped silently; the watchdog turns
	// that into a timeout the client can retry.
	r.node.Propose(reconfig.BarrierValue(id))
	r.e.Go(fmt.Sprintf("rex-%d-barrier-watchdog", r.cfg.ID), func() {
		if d := deadline - r.e.Now(); d > 0 {
			r.e.Sleep(d)
		}
		ch.TrySend(false)
	})

	v, ok := ch.Recv()
	r.mu.Lock()
	delete(p.pendingBarriers, id)
	r.mu.Unlock()
	if !ok {
		return ErrStopped // demoted or stopped while waiting
	}
	if !v.(bool) {
		r.obs.readTimeouts.Inc()
		return readpath.ErrLeaseWait
	}
	return nil
}
