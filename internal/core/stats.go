package core

import "rex/internal/trace"

// Stats is a point-in-time view of a replica's counters, used by the
// benchmark harness to reproduce the paper's measurements.
type Stats struct {
	Role           Role
	ReqsCompleted  uint64 // requests whose handler finished on this replica
	Applied        uint64 // committed instances applied locally
	EventsProposed uint64 // sync events in committed deltas seen
	EdgesProposed  uint64 // causal edges in committed deltas seen
	BytesCommitted uint64 // encoded bytes of committed deltas seen
	ReqsCommitted  uint64 // requests carried in committed deltas
	ReqBytes       uint64 // request payload bytes in committed deltas
	ReplayedEvents uint64 // events executed by the replay engine
	WaitedEvents   uint64 // replayed events that blocked on a causal edge
	ElidedOps      uint64 // lock ops elided via conflict-class ownership
	Outstanding    int    // admitted but unanswered requests (primary)

	// DeltasCommitted counts the committed trace deltas seen, and
	// FullTraceBytes is what proposing the whole trace in each of them
	// would have cost: the sum over deltas of BytesCommitted as of that
	// delta (for the §3.1 proposal-volume ablation).
	DeltasCommitted uint64
	FullTraceBytes  uint64
}

// Stats returns the replica's current counters.
func (r *Replica) Stats() Stats {
	r.mu.Lock()
	s := r.stats
	s.Role = r.roleLocked()
	s.Applied = r.applied
	if r.prim != nil {
		s.Outstanding = r.prim.outstanding
	}
	inc := r.inc
	rep := r.replayerLocked()
	r.mu.Unlock()
	if rep != nil {
		s.ReplayedEvents, s.WaitedEvents = rep.Stats()
	}
	if inc != nil {
		s.ElidedOps = inc.rt.ElidedOps()
	}
	return s
}

// Health is a point-in-time liveness/readiness view for operators (the
// rexd /healthz and /readyz endpoints serve it).
type Health struct {
	Role       Role
	Epoch      uint64 // latest committed membership epoch applied
	Applied    uint64 // committed instances applied locally
	ChosenSeq  uint64 // committed instances learned by consensus
	Voters     []int
	Learners   []int
	Member     bool // this replica appears in the membership
	Voter      bool // this replica votes
	CatchingUp bool // applied lags the learned frontier
}

// healthLagSlack is how many learned-but-unapplied instances a replica may
// carry before Health reports it catching up.
const healthLagSlack = 16

// Health reports the replica's role, membership view, and replication lag.
func (r *Replica) Health() Health {
	st := r.node.ChosenSnapshot()
	r.mu.Lock()
	defer r.mu.Unlock()
	return Health{
		Role:       r.roleLocked(),
		Epoch:      r.member.Epoch,
		Applied:    r.applied,
		ChosenSeq:  st.Seq,
		Voters:     append([]int(nil), r.member.Voters...),
		Learners:   append([]int(nil), r.member.Learners...),
		Member:     r.member.IsMember(r.cfg.ID),
		Voter:      r.member.IsVoter(r.cfg.ID),
		CatchingUp: st.Seq > r.applied+healthLagSlack,
	}
}

// Ready reports whether the replica can serve: it is a live member (voter,
// or primary) and is not still catching up on the committed stream.
func (h Health) Ready() bool {
	if h.Role == RoleFaulted || h.Role == RoleRemoved {
		return false
	}
	if h.Role == RolePrimary {
		return true
	}
	return h.Voter && !h.CatchingUp
}

// StateMachineForTest exposes the current application instance; tests use
// it to compare replica states after quiescing.
func (r *Replica) StateMachineForTest() StateMachine {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inc == nil {
		return nil
	}
	return r.inc.sm
}

// TraceRetainedForTest reports how many events and requests the replica's
// trace currently retains in memory (after prefix garbage collection).
func (r *Replica) TraceRetainedForTest() (events, reqs int) {
	tr := r.TraceForTest()
	if tr == nil {
		return 0, 0
	}
	st := tr.Stats()
	return st.Events, st.Reqs
}

// ChosenLog returns a consistent snapshot of the consensus learner's
// chosen instances: the first retained instance index (instances below it
// were compacted after a checkpoint) and the chosen values from there on.
// The chaos checker uses it to verify the prefix property across replicas.
func (r *Replica) ChosenLog() (base uint64, vals [][]byte) {
	st := r.node.ChosenSnapshot()
	return st.Base, st.Vals
}

// TraceForTest exposes the replica's committed-trace view for debugging:
// the trace its incarnation replays, which a promotion keeps as the
// primary's bookkeeping trace.
func (r *Replica) TraceForTest() *trace.Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if rep := r.replayerOfLocked(); rep != nil {
		return rep.Trace()
	}
	return nil
}
