package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"rex/internal/paxos"
	"rex/internal/reconfig"
	"rex/internal/sched"
	"rex/internal/trace"
	"rex/internal/wire"
)

// snapshotBlob is a checkpoint as stored and transferred: the application
// state plus everything Rex needs to resume replay from the cut — the
// requests still in flight at the cut and the client dedup table (§3.3).
type snapshotBlob struct {
	MarkID   uint64
	Inst     uint64 // instance whose delta carries the mark
	Cut      trace.Cut
	LiveReqs []trace.IndexedReq
	Dedup    map[uint64]dedupEntry
	// Versions are the resource version counters at the cut (§5.1):
	// replicated state, required for version checking to stay sound after
	// a restore.
	Versions []uint64
	App      []byte
	// Configs is the membership schedule governing the snapshot instance
	// and beyond. A learner restored from this checkpoint may have had the
	// chosen instances carrying those memberships compacted away; carrying
	// them here means it can never assemble quorums from a stale world.
	Configs []reconfig.Scheduled
}

// snapshotVersion 2 added Configs; version 3 added per-live-request
// conflict classes. Older blobs still load (missing fields default).
const snapshotVersion = 3

func (s *snapshotBlob) encode() []byte {
	e := wire.NewEncoder(nil)
	e.Byte(snapshotVersion)
	e.BytesVal(reconfig.EncodeSchedule(s.Configs))
	e.Uvarint(s.MarkID)
	e.Uvarint(s.Inst)
	e.Uvarint(uint64(len(s.Cut)))
	for _, c := range s.Cut {
		e.Uvarint(uint64(c))
	}
	e.Uvarint(uint64(len(s.LiveReqs)))
	for _, lr := range s.LiveReqs {
		e.Uvarint(lr.Idx)
		e.Uvarint(lr.Req.Client)
		e.Uvarint(lr.Req.Seq)
		e.Uvarint(uint64(lr.Req.Class))
		e.BytesVal(lr.Req.Body)
	}
	// Encode the dedup table in sorted order for deterministic bytes.
	clients := make([]uint64, 0, len(s.Dedup))
	for c := range s.Dedup {
		clients = append(clients, c)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	e.Uvarint(uint64(len(clients)))
	for _, c := range clients {
		d := s.Dedup[c]
		e.Uvarint(c)
		e.Uvarint(d.seq)
		e.BytesVal(d.resp)
	}
	e.Uvarint(uint64(len(s.Versions)))
	for _, v := range s.Versions {
		e.Uvarint(v)
	}
	e.BytesVal(s.App)
	return e.Bytes()
}

func decodeSnapshot(buf []byte) (*snapshotBlob, error) {
	d := wire.NewDecoder(buf)
	v := d.Byte()
	if d.Err() == nil && (v < 1 || v > snapshotVersion) {
		return nil, fmt.Errorf("rex: unsupported snapshot version %d", v)
	}
	s := &snapshotBlob{Dedup: make(map[uint64]dedupEntry)}
	if v >= 2 {
		configs, err := reconfig.DecodeSchedule(d.BytesVal())
		if err != nil {
			return nil, fmt.Errorf("rex: snapshot config schedule: %w", err)
		}
		s.Configs = configs
	}
	s.MarkID = d.Uvarint()
	s.Inst = d.Uvarint()
	nCut := d.Uvarint()
	if d.Err() != nil || nCut > 1<<16 {
		return nil, wire.ErrCorrupt
	}
	s.Cut = make(trace.Cut, nCut)
	for i := range s.Cut {
		s.Cut[i] = int32(d.Uvarint())
	}
	nLive := d.Uvarint()
	if d.Err() != nil || nLive > 1<<24 {
		return nil, wire.ErrCorrupt
	}
	for i := uint64(0); i < nLive; i++ {
		lr := trace.IndexedReq{Idx: d.Uvarint()}
		lr.Req.Client = d.Uvarint()
		lr.Req.Seq = d.Uvarint()
		if v >= 3 {
			lr.Req.Class = uint32(d.Uvarint())
		}
		lr.Req.Body = append([]byte(nil), d.BytesVal()...)
		s.LiveReqs = append(s.LiveReqs, lr)
	}
	nDedup := d.Uvarint()
	if d.Err() != nil || nDedup > 1<<24 {
		return nil, wire.ErrCorrupt
	}
	for i := uint64(0); i < nDedup; i++ {
		c := d.Uvarint()
		de := dedupEntry{seq: d.Uvarint()}
		de.resp = append([]byte(nil), d.BytesVal()...)
		s.Dedup[c] = de
	}
	nVer := d.Uvarint()
	if d.Err() != nil || nVer > 1<<24 {
		return nil, wire.ErrCorrupt
	}
	for i := uint64(0); i < nVer; i++ {
		s.Versions = append(s.Versions, d.Uvarint())
	}
	s.App = append([]byte(nil), d.BytesVal()...)
	return s, d.Err()
}

// buildSnapshot serializes the application at a checkpoint mark whose cut
// replay has reached (every logical thread paused exactly at the cut).
func (r *Replica) buildSnapshot(rt *sched.Runtime, rep *sched.Replayer, sm StateMachine, m trace.Mark, inst uint64) ([]byte, error) {
	var app bytes.Buffer
	if err := sm.WriteCheckpoint(&app); err != nil {
		return nil, fmt.Errorf("rex: WriteCheckpoint: %w", err)
	}
	r.mu.Lock()
	dedup := make(map[uint64]dedupEntry, len(r.dedup))
	for c, d := range r.dedup {
		dedup[c] = d
	}
	r.mu.Unlock()
	blob := &snapshotBlob{
		MarkID:   m.ID,
		Inst:     inst,
		Cut:      m.Cut,
		LiveReqs: rep.LiveReqs(m.Cut),
		Dedup:    dedup,
		Versions: rt.VersionsSnapshot(),
		App:      app.Bytes(),
		Configs:  r.node.ChosenSnapshot().Configs,
	}
	return blob.encode(), nil
}

// loadLocalSnapshot returns the newest locally stored snapshot, if any.
func (r *Replica) loadLocalSnapshot() (*snapshotBlob, bool, error) {
	_, data, ok, err := r.cfg.Snapshots.Load()
	if err != nil || !ok {
		return nil, false, err
	}
	s, err := decodeSnapshot(data)
	if err != nil {
		return nil, false, err
	}
	return s, true, nil
}

// errSnapshotAhead reports a locally stored checkpoint newer than the
// locally persisted chosen log: a checkpoint transfer landed before the
// learner's entries reached the WAL, and then the process crashed. The
// checkpoint itself is valid — recovery needs the learner running so it
// can re-fetch the missing log suffix from peers (see Start).
var errSnapshotAhead = errors.New("rex: checkpoint outruns the persisted chosen log")

// snapCatchupTimeout bounds how long rebuild waits for the learner to
// re-fetch chosen entries past a checkpoint's mark before giving up.
const snapCatchupTimeout = 30 * time.Second

// rebuild reconstructs the replica's execution state — a fresh runtime and
// application — from the latest checkpoint plus the committed trace, and
// starts it replaying as a secondary. It serves initial startup, crash
// recovery, rejoin, and primary rollback after demotion (§5.2).
func (r *Replica) rebuild() error {
	start := r.e.Now()
	threads := r.cfg.Workers + r.cfg.Timers
	for {
		var st paxos.ChosenState
		if r.nodeStarted {
			st = r.node.ChosenSnapshot()
		} else {
			base, vals := r.node.Chosen()
			st = paxos.ChosenState{Base: base, Vals: vals, Seq: base + uint64(len(vals))}
		}
		snap, haveSnap, err := r.loadLocalSnapshot()
		if err != nil {
			return err
		}
		if haveSnap && snap.Inst < st.Base {
			haveSnap = false // snapshot predates the compaction horizon
		}
		if haveSnap && r.nodeStarted && len(snap.Configs) > 0 {
			// Before any fast-forward: the jump must land with the schedule
			// governing the snapshot instance already in place.
			r.node.AdoptConfigs(snap.Configs)
		}
		if haveSnap && st.Seq <= snap.Inst {
			// The delta carrying the snapshot's mark is not in the chosen
			// log yet (checkpoint transfer racing the learner).
			if r.nodeStarted {
				// Entries below the checkpoint may have been compacted
				// cluster-wide, so the learner cannot fill them in; the
				// checkpoint covers them, so fast-forward past the gap
				// (same move handleGap makes) and wait for the delta
				// carrying the mark to arrive from peers.
				r.node.AdvanceTo(snap.Inst)
				if ferr := r.FaultError(); ferr != nil {
					return fmt.Errorf("rex: crash-stopped while recovering checkpoint at instance %d: %w", snap.Inst, ferr)
				}
				if r.e.Now()-start > snapCatchupTimeout {
					return fmt.Errorf("rex: snapshot at instance %d unreachable: chosen log starts at %d and ends at %d: %w",
						snap.Inst, st.Base, st.Seq, errSnapshotAhead)
				}
				if !r.sleepInterruptible(50 * time.Millisecond) {
					return ErrStopped
				}
				continue // the learner will catch up
			}
			if st.Base == 0 {
				haveSnap = false // cold start: replay from the beginning
			} else {
				return fmt.Errorf("rex: snapshot at instance %d vs chosen log [%d, %d): %w",
					snap.Inst, st.Base, st.Seq, errSnapshotAhead)
			}
		}
		if !haveSnap && st.Base > 0 {
			// The chosen prefix was compacted and we have no (recent
			// enough) checkpoint: fetch one from a peer and retry.
			if err := r.requestSnapshot(st.Base); err != nil {
				return err
			}
			continue
		}

		var startInst uint64
		if haveSnap {
			startInst = snap.Inst
		}
		// Adopt the membership schedule: the checkpoint carries the configs
		// governing its instance (chosen entries holding them may be
		// compacted away everywhere), and the chosen suffix may hold newer
		// committed memberships.
		var latest *reconfig.Membership
		if haveSnap && len(snap.Configs) > 0 {
			m := snap.Configs[len(snap.Configs)-1].M
			latest = &m
		}
		// Fold the chosen deltas into a fresh trace one at a time through
		// one scratch delta. With a checkpoint, the trace starts at the
		// first delta's base: the delta carrying the checkpoint's mark.
		var tr *trace.Trace
		if !haveSnap {
			tr = trace.New(threads)
		}
		var delta trace.Delta
		for i := startInst; i < st.Seq; i++ {
			raw := st.Vals[i-st.Base]
			if reconfig.IsMeta(raw) {
				if m, err := reconfig.DecodeValue(raw); err == nil {
					if latest == nil || m.Epoch > latest.Epoch {
						latest = &m
					}
				}
				continue // memberships and padding carry no trace events
			}
			if err := delta.DecodeFrom(raw); err != nil {
				return fmt.Errorf("rex: corrupt chosen delta %d: %w", i, err)
			}
			if tr == nil {
				tr = trace.NewAt(threads, delta.Base, delta.ReqBase)
				for _, lr := range snap.LiveReqs {
					if lr.Idx < delta.ReqBase {
						tr.StashReq(lr.Idx, lr.Req)
					}
				}
			}
			if err := tr.Apply(&delta); err != nil {
				return fmt.Errorf("rex: replaying chosen delta %d: %w", i, err)
			}
		}

		var base trace.Cut
		dedup := make(map[uint64]dedupEntry)
		if haveSnap {
			if tr == nil {
				return fmt.Errorf("rex: snapshot at instance %d but no chosen delta carries its mark", snap.Inst)
			}
			base = snap.Cut
			for c, d := range snap.Dedup {
				dedup[c] = d
			}
		}

		rt := sched.NewRuntime(r.e, threads, sched.ModeNative)
		rt.CheckVersions = !r.cfg.DisableVersionChecks
		rt.DisablePruning = r.cfg.DisablePruning
		rt.DisableConflictElision = r.cfg.DisableConflictElision
		rt.UnsafeSkipEdgeWaits = r.cfg.UnsafeReplayNoEdgeWaits
		rt.Obs = r.obs.replay
		host := &TimerHost{}
		sm := r.cfg.Factory(rt, host)
		if len(host.specs) != r.cfg.Timers {
			return fmt.Errorf("rex: factory registered %d timers, config says %d", len(host.specs), r.cfg.Timers)
		}
		if haveSnap {
			if err := sm.ReadCheckpoint(bytes.NewReader(snap.App)); err != nil {
				return fmt.Errorf("rex: ReadCheckpoint: %w", err)
			}
			rt.RestoreVersions(snap.Versions)
		}
		if err := rt.StartReplay(tr, base); err != nil {
			return fmt.Errorf("rex: starting replay from checkpoint cut %v: %w", base, err)
		}

		r.mu.Lock()
		oldRT := r.rt
		r.gen++
		r.rt = rt
		r.sm = sm
		r.classifier, _ = sm.(ConflictClassifier)
		r.resetClassDispatchLocked()
		r.timers = host.specs
		r.tr = tr
		r.lcc = nil
		r.snapBase = base
		if st.Seq > r.applied {
			r.applied = st.Seq
		}
		if startInst > r.lastCkptInst {
			r.lastCkptInst = startInst
		}
		if latest != nil && latest.Epoch > r.member.Epoch {
			r.member = latest.Clone()
		}
		if !r.removed {
			r.role = RoleSecondary
		}
		r.spawnExecutionLocked()
		r.cond.Broadcast()
		r.mu.Unlock()
		if oldRT != nil {
			if oldRep := oldRT.Replayer(); oldRep != nil {
				oldRep.Abort() // release the previous incarnation's workers
			}
		}
		r.logf("rebuilt (gen %d) from %s at applied=%d",
			r.gen, map[bool]string{true: "checkpoint", false: "initial state"}[haveSnap], st.Seq)
		r.obs.rebuildDur.Observe(r.e.Now() - start)
		r.obs.rebuilds.Inc()
		r.obs.rebuildDeltas.Observe(st.Seq - startInst)
		return nil
	}
}

// requestSnapshot asks peers for a checkpoint covering at least instance
// minInst and waits for one to arrive.
func (r *Replica) requestSnapshot(minInst uint64) error {
	deadline := r.e.Now() + 30*time.Second
	for r.e.Now() < deadline {
		r.broadcastCtrl(&ctrlMsg{Kind: ctrlSnapRequest})
		if !r.sleepInterruptible(100 * time.Millisecond) {
			return ErrStopped
		}
		snap, ok, err := r.loadLocalSnapshot()
		if err != nil {
			return err
		}
		if ok && snap.Inst >= minInst {
			return nil
		}
	}
	return fmt.Errorf("rex: no peer supplied a checkpoint covering instance %d", minInst)
}
