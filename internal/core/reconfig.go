package core

import (
	"errors"
	"fmt"

	"rex/internal/reconfig"
)

// ErrReconfigInFlight is returned when a membership change is proposed
// while another one has not committed yet; the primary serializes changes.
var ErrReconfigInFlight = errors.New("rex: a membership change is already in flight")

// Membership returns the latest committed membership this replica applied.
func (r *Replica) Membership() reconfig.Membership {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.member.Clone()
}

// AddMember proposes admitting id (reachable at addr; empty in-process) as
// a non-voting learner. Primary-only; one change in flight at a time. The
// learner catches up via checkpoint transfer and the chosen log, and is
// promoted to voter automatically once within joinLagInstances of the
// primary's applied frontier.
func (r *Replica) AddMember(id int, addr string) error {
	return r.proposeChange(id, func(m reconfig.Membership) (reconfig.Membership, error) {
		return m.WithAdd(id, addr)
	})
}

// RemoveMember proposes removing id (voter or learner). The removed node
// keeps voting for the α instances before activation, then goes quiet.
func (r *Replica) RemoveMember(id int) error {
	// The self-guard lives inside the mutation, which runs only after the
	// primary check: a non-primary replica asked to remove itself must
	// answer "not primary" (so the client redirects) rather than refuse a
	// perfectly valid removal just because the client contacted the doomed
	// node first.
	return r.proposeChange(-1, func(m reconfig.Membership) (reconfig.Membership, error) {
		if id == r.cfg.ID {
			return reconfig.Membership{}, errors.New("rex: cannot remove self; move the primary first")
		}
		return m.WithRemove(id)
	})
}

// ReplaceMember removes oldID and admits newID as a learner in a single
// committed change, so the voter count never dips below the starting value
// minus one and the operator cannot be left mid-swap by a crash.
func (r *Replica) ReplaceMember(oldID, newID int, addr string) error {
	return r.proposeChange(newID, func(m reconfig.Membership) (reconfig.Membership, error) {
		if oldID == r.cfg.ID {
			return reconfig.Membership{}, errors.New("rex: cannot replace self; move the primary first")
		}
		mid, err := m.WithRemove(oldID)
		if err != nil {
			return reconfig.Membership{}, err
		}
		return mid.WithAdd(newID, addr)
	})
}

func (r *Replica) proposeChange(promoteTarget int, mut func(reconfig.Membership) (reconfig.Membership, error)) error {
	r.mu.Lock()
	if r.stopped || r.faultErr != nil || r.removed {
		r.mu.Unlock()
		return ErrStopped
	}
	p := r.prim
	if p == nil {
		leader := r.curLeader
		r.mu.Unlock()
		return ErrNotPrimary{Leader: leader}
	}
	if p.reconfigInflight {
		r.mu.Unlock()
		return ErrReconfigInFlight
	}
	next, err := mut(r.member)
	if err != nil {
		r.mu.Unlock()
		return err
	}
	next.Alpha = reconfig.DefaultAlpha
	p.reconfigInflight = true
	if promoteTarget >= 0 {
		p.pendingPromote = promoteTarget
	}
	r.mu.Unlock()
	r.logf("proposing membership change: %v", next)
	r.node.Propose(reconfig.EncodeValue(next))
	return nil
}

// applyMeta folds a non-delta consensus value (a committed membership or
// activation padding) into the applied frontier. Returns false when the
// apply loop must exit.
func (r *Replica) applyMeta(inst uint64, val []byte) bool {
	var m reconfig.Membership
	isMember := reconfig.IsValue(val)
	if isMember {
		var err error
		m, err = reconfig.DecodeValue(val)
		if err != nil {
			r.fault(fmt.Errorf("rex: corrupt committed membership %d: %w", inst, err))
			return false
		}
	}
	r.mu.Lock()
	if inst < r.applied {
		r.mu.Unlock()
		return true // already folded in by a rebuild
	}
	if inst > r.applied {
		// Same resync path as deltas: commits jumped past us after a
		// checkpoint transfer (rebuild re-adopts memberships from the
		// chosen log).
		r.needResync = true
		r.cond.Broadcast()
		r.mu.Unlock()
		r.lifeQ.Send(resyncEvt{})
		return true
	}
	var hook func(reconfig.Membership)
	p := r.prim
	if isMember {
		if m.Epoch > r.member.Epoch {
			r.member = m.Clone()
			if p != nil && p.pendingPromote >= 0 && !m.IsLearner(p.pendingPromote) {
				p.pendingPromote = -1 // promoted — or removed before promotion
			}
		}
		if p != nil {
			p.reconfigInflight = false
		}
		hook = r.cfg.OnMembership
	} else if id, isBarrier := reconfig.BarrierID(val); isBarrier && p != nil {
		// A read barrier committed. Only the exact id this replica
		// proposed may confirm a waiting linearizable read: matching on
		// anything weaker (a high-water instance, any barrier) would let
		// another primary's barrier wake a deposed reader and pass off a
		// stale read as linearizable.
		if ch, waiting := p.pendingBarriers[id]; waiting {
			ch.TrySend(true)
			delete(p.pendingBarriers, id)
		}
	}
	r.applied = inst + 1
	r.cond.Broadcast()
	r.mu.Unlock()
	if isMember {
		r.logf("membership committed at instance %d: %v", inst, m)
		if hook != nil {
			hook(m.Clone())
		}
	}
	return true
}

// promotionForLocked decides whether a peer's replay-status report should
// trigger its promotion from learner to voter, returning the encoded
// proposal (to be proposed outside the lock) or nil.
func (r *Replica) promotionForLocked(from int, st peerStatus) []byte {
	p := r.prim
	if p == nil || p.reconfigInflight {
		return nil
	}
	if from != p.pendingPromote || !r.member.IsLearner(from) {
		return nil
	}
	if st.lag > joinLagInstances || st.backlog > r.cfg.LagLimitEvents {
		return nil
	}
	next, err := r.member.WithPromote(from)
	if err != nil {
		return nil
	}
	next.Alpha = reconfig.DefaultAlpha
	p.reconfigInflight = true
	return reconfig.EncodeValue(next)
}

// finishRemoval quiesces a replica whose removal took effect (the paxos
// layer fires OnRemoved at activation): fail pending work, abort replay,
// park in RoleRemoved, and stop the consensus node.
func (r *Replica) finishRemoval(m reconfig.Membership) {
	r.mu.Lock()
	if r.stopped || r.removed {
		r.mu.Unlock()
		return
	}
	r.removed = true
	if m.Epoch > r.member.Epoch {
		r.member = m.Clone()
	}
	r.dropPrimaryLocked()
	r.wakeAndAbortUnlock()
	r.logf("removed from membership (epoch %d); going quiet", m.Epoch)
	r.node.Stop()
}
