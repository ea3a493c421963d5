package paxos

import (
	"sort"

	"rex/internal/reconfig"
)

// Membership machinery: horizon-based (α-bounded) reconfiguration.
//
// A membership change is an ordinary consensus value (reconfig.EncodeValue)
// chosen at some instance i; it takes effect at instance i+α. The node keeps
// a small schedule of configs ordered by activation instance: configAt(inst)
// is the membership governing that instance's quorum and epoch. Instances in
// [i, i+α) therefore keep the proposing epoch's quorum — an instance opened
// or re-proposed before the change is learned is never stranded — while
// everything ≥ i+α uses the new one.
//
// Messages that drive voting (prepare, accept, heartbeat) carry the sender's
// epoch for the governing instance; a receiver whose governing epoch is newer
// rejects with mEpochNack carrying its active membership, so removed or
// lagging nodes learn the configuration they missed instead of assembling
// quorums from a stale world.

// scheduledConfigs returns a copy of the config schedule relevant at or
// after inst: the config governing inst plus everything scheduled later.
func (n *Node) scheduledConfigs(inst uint64) []reconfig.Scheduled {
	idx := n.configIdx(inst)
	out := make([]reconfig.Scheduled, 0, len(n.configs)-idx)
	for _, sc := range n.configs[idx:] {
		out = append(out, reconfig.Scheduled{FromInst: sc.FromInst, M: sc.M.Clone()})
	}
	return out
}

// configIdx returns the index of the config governing inst: the entry with
// the largest FromInst ≤ inst (clamped to the oldest known config).
func (n *Node) configIdx(inst uint64) int {
	idx := 0
	for i, sc := range n.configs {
		if sc.FromInst <= inst {
			idx = i
		} else {
			break
		}
	}
	return idx
}

// configAt returns the membership governing inst.
func (n *Node) configAt(inst uint64) *reconfig.Membership {
	return &n.configs[n.configIdx(inst)].M
}

// activeConfig is the membership governing the next undecided instance —
// the one elections and heartbeats are judged against.
func (n *Node) activeConfig() *reconfig.Membership { return n.configAt(n.chosenSeq) }

// epochAt returns the epoch governing inst.
func (n *Node) epochAt(inst uint64) uint64 { return n.configAt(inst).Epoch }

// isVoter reports whether this node votes for the next undecided instance.
func (n *Node) isVoter() bool { return n.activeConfig().IsVoter(n.cfg.ID) }

// peerList returns every id that must receive broadcasts: the union of all
// members across the schedule (old members still ack in-flight instances,
// learners need commits) plus self (the loop-back ack path). It is cached
// until the schedule changes (setConfigs); callers must not modify it.
func (n *Node) peerList() []int {
	if n.peers != nil {
		return n.peers
	}
	seen := map[int]bool{n.cfg.ID: true}
	out := []int{n.cfg.ID}
	for _, sc := range n.configs {
		for _, id := range sc.M.Members() {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Ints(out)
	n.peers = out
	return out
}

// setConfigs replaces the membership schedule and drops the cached peer
// list derived from it.
func (n *Node) setConfigs(configs []reconfig.Scheduled) {
	n.configs = configs
	n.peers = nil
}

// persistConfig writes a recConfig record for sc into the WAL arena.
func (n *Node) persistConfig(sc reconfig.Scheduled) {
	e := n.walEnc
	e.Byte(recConfig)
	e.Uvarint(sc.FromInst)
	e.BytesVal(reconfig.EncodeValue(sc.M))
	n.walEnd()
}

// scheduleConfig installs sc into the schedule (idempotent by epoch),
// persisting it when persist is set. Returns true if the schedule changed.
func (n *Node) scheduleConfig(sc reconfig.Scheduled, persist bool) bool {
	// Epochs are assigned consecutively in commit order, so an epoch we
	// already hold (or anything older) is a duplicate or superseded.
	for _, have := range n.configs {
		if have.M.Epoch >= sc.M.Epoch {
			return false
		}
	}
	n.setConfigs(append(n.configs, reconfig.Scheduled{FromInst: sc.FromInst, M: sc.M.Clone()}))
	sort.SliceStable(n.configs, func(i, j int) bool { return n.configs[i].FromInst < n.configs[j].FromInst })
	if persist {
		n.persistConfig(sc)
	}
	n.cfg.Metrics.Reconfigs.Inc()
	n.cfg.logf("scheduled membership %v effective at instance %d", sc.M, sc.FromInst)
	n.checkActivation()
	return true
}

// recoverConfig merges a recConfig WAL record into the schedule during
// recovery: no persistence, callbacks, or metrics — just state.
func (n *Node) recoverConfig(sc reconfig.Scheduled) {
	for i, have := range n.configs {
		if have.M.Epoch == sc.M.Epoch {
			n.configs[i] = sc
			n.peers = nil
			return
		}
	}
	n.setConfigs(append(n.configs, sc))
	sort.SliceStable(n.configs, func(i, j int) bool { return n.configs[i].FromInst < n.configs[j].FromInst })
}

// pruneConfigs drops schedule entries made obsolete by progress: everything
// older than the config governing chosenSeq. (Quorums are only ever needed
// for instances ≥ chosenSeq; older instances are already decided.)
func (n *Node) pruneConfigs() {
	idx := n.configIdx(n.chosenSeq)
	if idx > 0 {
		n.setConfigs(append(n.configs[:0], n.configs[idx:]...))
	}
}

// checkActivation runs after chosenSeq advances (or the schedule changes):
// it prunes obsolete configs, notifies the host of a newly active
// membership, steps down a leader that lost its vote, and fires OnRemoved
// once this node is no longer a member of the active configuration.
func (n *Node) checkActivation() {
	n.pruneConfigs()
	active := n.activeConfig()
	if active.Epoch == n.activeEpoch {
		return
	}
	n.activeEpoch = active.Epoch
	n.cfg.logf("membership %v now active at instance %d", active, n.chosenSeq)
	// The voter set changed under any open lease window: both the grant
	// quorum math and a voter's silent window were judged against the old
	// epoch, so forfeit them rather than reason across the boundary.
	n.dropLease()
	if n.isLeader && !active.IsVoter(n.cfg.ID) {
		n.cfg.logf("lost voting rights in epoch %d; stepping down", active.Epoch)
		n.isLeader = false
		n.open = nil
		n.proposeQ = nil
	}
	if n.preparing && !active.IsVoter(n.cfg.ID) {
		n.preparing = false
	}
	if n.cfg.OnMembership != nil {
		n.cfg.OnMembership(active.Clone())
	}
	// Removal is a member→non-member transition, not mere absence: a
	// joiner catching up activates every historical config before the one
	// that admits it, and must not read its absence from those as removal.
	if !active.IsMember(n.cfg.ID) && n.wasMember && !n.removedFired {
		n.removedFired = true
		if n.cfg.OnRemoved != nil {
			n.cfg.OnRemoved(active.Clone())
		}
	}
	n.wasMember = active.IsMember(n.cfg.ID)
}

// maybeScheduleFromValue inspects a freshly chosen value; when it is an
// encoded membership it schedules activation at inst+α.
func (n *Node) maybeScheduleFromValue(inst uint64, val []byte) {
	if !reconfig.IsValue(val) {
		return
	}
	m, err := reconfig.DecodeValue(val)
	if err != nil {
		n.cfg.logf("ignoring corrupt membership chosen at %d: %v", inst, err)
		return
	}
	alpha := m.Alpha
	if alpha == 0 {
		alpha = reconfig.DefaultAlpha
	}
	n.scheduleConfig(reconfig.Scheduled{FromInst: inst + alpha, M: m}, true)
}

// sendEpochNack tells a peer its view of the membership is stale, carrying
// our active configuration so it can adopt it.
func (n *Node) sendEpochNack(to int) {
	idx := n.configIdx(n.chosenSeq)
	sc := n.configs[idx]
	n.cfg.Metrics.EpochNacks.Inc()
	n.send(to, n.out(message{
		Kind:     mEpochNack,
		Epoch:    sc.M.Epoch,
		FromInst: sc.FromInst,
		Val:      reconfig.EncodeValue(sc.M),
	}))
}

// onEpochNack adopts a newer membership a peer told us about, then asks the
// peer for the chosen values we are evidently missing.
func (n *Node) onEpochNack(m *message, from int) {
	if m.Epoch <= n.activeEpoch {
		return // stale or duplicate nack
	}
	mem, err := reconfig.DecodeValue(m.Val)
	if err != nil {
		n.cfg.logf("dropping corrupt epoch nack from %d: %v", from, err)
		return
	}
	n.cfg.logf("epoch nack from %d: adopting %v at instance %d", from, mem, m.FromInst)
	n.scheduleConfig(reconfig.Scheduled{FromInst: m.FromInst, M: mem}, true)
	if n.preparing {
		// Our prepare was judged against a stale epoch; abandon the round
		// and retry (with the adopted config) after catching up.
		n.preparing = false
		n.electionDeadline = n.cfg.Env.Now() + n.electionTimeout()
	}
	n.cfg.Metrics.LearnReqs.Inc()
	n.send(from, n.out(message{Kind: mLearn, FromInst: n.chosenSeq}))
}

// AdoptConfigs installs a config schedule recovered from a checkpoint
// transfer: the snapshot's sender recorded the configuration governing the
// snapshot instance plus everything scheduled after it. Safe to call from
// any task.
func (n *Node) AdoptConfigs(configs []reconfig.Scheduled) {
	n.inbox.Send(adoptCmd{configs: configs})
}

// learnTick is the non-voter's substitute for elections: a learner cannot
// become leader, so on election timeout it instead asks a voter for the
// chosen values it is missing, rotating through the voters so one dead
// peer cannot stall catch-up.
func (n *Node) learnTick() {
	voters := n.activeConfig().Voters
	if len(voters) == 0 {
		return
	}
	target := voters[n.learnRR%len(voters)]
	n.learnRR++
	if target == n.cfg.ID {
		if len(voters) == 1 {
			return
		}
		target = voters[n.learnRR%len(voters)]
		n.learnRR++
	}
	n.cfg.Metrics.LearnReqs.Inc()
	n.send(target, n.out(message{Kind: mLearn, FromInst: n.chosenSeq}))
	n.electionDeadline = n.cfg.Env.Now() + n.electionTimeout()
}
