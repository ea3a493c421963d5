package paxos

import (
	"sort"
	"time"
)

// Quorum read leases: the mechanism that lets a leader serve
// linearizable reads without a consensus round per read.
//
// Every heartbeat carries the leader's send time (on the leader's own
// clock) in the Inst field. A voter that accepts the heartbeat replies
// with an mLeaseGrant echoing that stamp, and — this is the safety
// half — refuses mPrepare from anyone but the grantee until
// LeaseDuration has elapsed on its own clock since it received the
// heartbeat. The grant is therefore a temporary promise of electoral
// silence, not merely an ack.
//
// The leader sorts the acked stamps of the active voters (counting
// itself at its latest send time) and takes the Quorum()-th largest:
// call it S. Until S + LeaseDuration - LeaseDuration/8 (leader clock), a
// quorum of voters is still inside its silent window: receive time >=
// send time, and clocks drift by at most LeaseDuration/8 over a lease
// interval. Any competing election needs promises from a quorum, and
// quorums intersect, so no new leader can complete phase 1 before the
// lease expires — reads served under the lease cannot miss a newer
// leader's writes.
//
// Leases piggyback entirely on existing traffic: no extra messages on
// the critical path, one small grant per heartbeat per voter.

// leaseEnabled reports whether the lease machinery is on (LeaseDuration
// >= 0 after defaulting; negative disables it).
func (n *Node) leaseEnabled() bool { return n.cfg.LeaseDuration > 0 }

// stampHeartbeat fills the lease timestamp into an outgoing heartbeat
// and refreshes the leader's own (self-grant) stamp.
func (n *Node) stampHeartbeat(m *message, now time.Duration) {
	if !n.leaseEnabled() {
		return
	}
	m.Inst = uint64(now)
	n.grantAt[n.cfg.ID] = now
	n.recomputeLease()
}

// grantLease runs on a voter after a heartbeat passed the epoch, ballot,
// and voter checks: record the silent window and echo the stamp back.
func (n *Node) grantLease(m *message, from int) {
	if !n.leaseEnabled() || m.Inst == 0 || !n.isVoter() {
		return
	}
	n.leaseTo = from
	n.leaseUntil = n.cfg.Env.Now() + n.cfg.LeaseDuration
	n.cfg.Metrics.LeaseGrants.Inc()
	n.send(from, n.out(message{Kind: mLeaseGrant, Ballot: m.Ballot, Inst: m.Inst, Epoch: n.activeEpoch}))
}

// onLeaseGrant folds a voter's grant into the leader's lease window.
func (n *Node) onLeaseGrant(m *message, from int) {
	if !n.isLeader || m.Ballot != n.prepBallot || !n.leaseEnabled() {
		return
	}
	if t := time.Duration(m.Inst); t > n.grantAt[from] {
		n.grantAt[from] = t
	}
	n.recomputeLease()
}

// recomputeLease publishes the expiry of the current lease window: the
// Quorum()-th largest acked heartbeat stamp among the active voters,
// plus the lease duration, minus the clock-skew allowance.
func (n *Node) recomputeLease() {
	if !n.isLeader {
		n.leaseExpiry.Store(0)
		return
	}
	cfgm := n.activeConfig()
	stamps := make([]time.Duration, 0, len(cfgm.Voters))
	for _, id := range cfgm.Voters {
		stamps = append(stamps, n.grantAt[id]) // zero when never acked
	}
	q := cfgm.Quorum()
	if len(stamps) < q {
		n.leaseExpiry.Store(0)
		return
	}
	sort.Slice(stamps, func(i, j int) bool { return stamps[i] > stamps[j] })
	base := stamps[q-1]
	if base == 0 {
		n.leaseExpiry.Store(0)
		return
	}
	n.leaseExpiry.Store(int64(base + n.cfg.LeaseDuration - n.cfg.LeaseDuration/8))
}

// dropLease clears all lease state on both sides: called on deposition,
// removal, epoch activation (the voter set changed under the window),
// and stop.
func (n *Node) dropLease() {
	n.leaseExpiry.Store(0)
	for id := range n.grantAt {
		delete(n.grantAt, id)
	}
	n.leaseTo = -1
	n.leaseUntil = 0
}

// suppressPrepare reports whether an incoming prepare from `from` must
// be dropped because this voter is inside a silent window granted to
// someone else. The leader's own unexpired lease counts: it included
// its own stamp in the quorum, so its promise must stay off the market
// just like any granting voter's.
func (n *Node) suppressPrepare(from int) bool {
	if !n.leaseEnabled() || from == n.cfg.ID {
		return false
	}
	now := n.cfg.Env.Now()
	if exp := n.leaseExpiry.Load(); exp > 0 && now < time.Duration(exp) {
		// This node is the leader of a still-valid lease; its own promise
		// was part of the quorum that established the window, so it stays
		// off the market exactly as long as it may serve lease reads.
		n.cfg.Metrics.LeaseSuppressed.Inc()
		return true
	}
	if n.leaseTo >= 0 && n.leaseTo != from && now < n.leaseUntil {
		n.cfg.Metrics.LeaseSuppressed.Inc()
		return true
	}
	return false
}

// holdElection reports whether this voter should delay starting its own
// election because it still holds a live grant to the current leader;
// the prepare would be suppressed by its peers anyway.
func (n *Node) holdElection() bool {
	if !n.leaseEnabled() || n.leaseTo < 0 || n.leaseTo == n.cfg.ID {
		return false
	}
	return n.cfg.Env.Now() < n.leaseUntil
}

// LeaseValid reports whether this node currently holds a quorum read
// lease: it is the leader and the published lease window has not
// expired. Safe to call from any task (the hot read path calls it per
// linearizable read).
func (n *Node) LeaseValid() bool {
	exp := n.leaseExpiry.Load()
	return exp > 0 && n.cfg.Env.Now() < time.Duration(exp)
}
