package core

import (
	"time"

	"rex/internal/sched"
)

// checkpointCoordinator drives checkpoint marks on a secondary: when
// replay reaches a mark's cut, the designated secondary snapshots the
// application and copies the checkpoint to its peers in the background;
// other secondaries pass the mark through (§3.3).
func (r *Replica) checkpointCoordinator(inc *incarnation) {
	for {
		if r.ended(inc) {
			return
		}
		r.mu.Lock()
		promoted := r.prim != nil
		r.mu.Unlock()
		if promoted {
			return // the primary initiates marks, it doesn't serve them
		}
		rep := inc.rt.Replayer()
		m, ok := rep.PendingMark()
		if !ok {
			if !r.sleepInterruptible(5 * time.Millisecond) {
				return
			}
			continue
		}
		if !r.designatedSnapshotter(m.ID) {
			rep.CompleteMark(m.ID)
			continue
		}
		if !rep.WaitMarkReached(m) {
			return // aborted (promotion or shutdown)
		}
		r.mu.Lock()
		inst := r.markInst[m.ID]
		r.mu.Unlock()
		buildStart := r.e.Now()
		buf, err := r.buildSnapshot(inc, rep, m, inst)
		r.obs.ckptBuild.Observe(r.e.Now() - buildStart)
		if err != nil {
			r.logf("checkpoint %d failed: %v", m.ID, err)
			rep.CompleteMark(m.ID)
			continue
		}
		// The chosen log must reach inst on disk before a checkpoint at
		// inst does: chosen records are written lazily, and a checkpoint
		// ahead of the local log makes a lone restart wait on peers
		// (errSnapshotAhead).
		if !r.node.Sync() {
			r.logf("checkpoint %d not saved: consensus stopped", m.ID)
			rep.CompleteMark(m.ID)
			continue
		}
		if err := r.cfg.Snapshots.Save(m.ID, buf[snapHeadroom:]); err != nil {
			r.logf("checkpoint %d save failed: %v", m.ID, err)
			rep.CompleteMark(m.ID)
			continue
		}
		rep.CompleteMark(m.ID)
		r.mu.Lock()
		r.noteSnapshotLocked(inst, len(buf)-snapHeadroom)
		r.mu.Unlock()
		r.logf("checkpoint %d taken at cut %v (instance %d)", m.ID, m.Cut, inst)
		// Garbage-collect the covered prefix — both the consensus log and
		// the in-memory trace — and copy the checkpoint to the other
		// replicas in the background.
		r.node.Compact(inst)
		rep.ForgetThrough(m.Cut)
		r.broadcastCtrl(snapFrame(buf))
	}
}

// designatedSnapshotter picks which secondary snapshots a given mark: the
// voter at index (mark id modulo voter count), skipping the (believed)
// leader. Replicas with a stale leader guess — or a briefly divergent
// membership view — merely cause a skipped or duplicated snapshot, never
// incorrectness.
func (r *Replica) designatedSnapshotter(markID uint64) bool {
	r.mu.Lock()
	leader := r.curLeader
	voters := append([]int(nil), r.member.Voters...)
	r.mu.Unlock()
	if len(voters) == 0 {
		return false
	}
	idx := int(markID % uint64(len(voters)))
	if voters[idx] == leader {
		idx = (idx + 1) % len(voters)
	}
	return voters[idx] == r.cfg.ID
}

// statusLoop reports replay progress to the primary (feeding its flow
// control) while this replica is a secondary.
func (r *Replica) statusLoop() {
	for {
		if !r.sleepInterruptible(r.cfg.StatusEvery) {
			return
		}
		r.mu.Lock()
		if !r.secondaryLocked() {
			// Re-evaluate throttling staleness on the primary even without
			// fresh reports.
			r.cond.Broadcast()
			r.mu.Unlock()
			continue
		}
		applied := r.applied
		rep := r.replayerLocked()
		r.mu.Unlock()
		r.broadcastCtrl((&ctrlMsg{Kind: ctrlStatus, Applied: applied, Backlog: rep.Backlog()}).encode())
	}
}

// replayerLocked returns the current runtime's replayer while it is
// replaying, nil otherwise. The mode is read under r.mu because promote
// switches it there; rebuild sets it before publishing the runtime.
func (r *Replica) replayerLocked() *sched.Replayer {
	if r.inc == nil || r.inc.rt.Mode() != sched.ModeReplay {
		return nil
	}
	return r.inc.rt.Replayer()
}

// replayerOfLocked returns the current incarnation's replayer in any
// mode, nil before Start's first rebuild publishes one.
func (r *Replica) replayerOfLocked() *sched.Replayer {
	if r.inc == nil {
		return nil
	}
	return r.inc.rt.Replayer()
}

// replayBacklog reports this replica's own replay backlog in events;
// the read path sheds weak follower reads past the lag limit.
func (r *Replica) replayBacklog() uint64 {
	r.mu.Lock()
	rep := r.replayerLocked()
	r.mu.Unlock()
	return rep.Backlog()
}
