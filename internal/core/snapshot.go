package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// snapshotVersion is the only checkpoint encoding. It lays the fields out
// so that the header a checkpoint push needs (decodeSnapshotHeader) comes
// first and the application state is written straight into the encoding:
//
//	version, config schedule, mark id, instance, cut,
//	app state (8-byte little-endian length + bytes),
//	live requests, versions, dedup table
const snapshotVersion = 4

// Minimum encoded sizes of the repeated items, which bound their counts by
// the unread input.
const (
	minLiveReqBytes = 5 // index, client, seq, class, body length
	minDedupBytes   = 3 // client, seq, response length
)

// snapHeadroom is the space buildSnapshot leaves in front of a checkpoint
// for its ctrlSnapBlob frame header, so the push frames the blob in place
// (snapFrame) instead of copying it.
const snapHeadroom = 3 + binary.MaxVarintLen64

func (s *snapshotBlob) encode() []byte {
	e := wire.NewEncoder(nil)
	s.encodeHead(e)
	encodeApp(e, func(w io.Writer) error {
		_, err := w.Write(s.App)
		return err
	})
	s.encodeTail(e)
	return e.Bytes()
}

// encodeHead appends the fields decodeSnapshotHeader reads.
func (s *snapshotBlob) encodeHead(e *wire.Encoder) {
	e.Byte(snapshotVersion)
	e.BytesVal(reconfig.EncodeSchedule(s.Configs))
	e.Uvarint(s.MarkID)
	e.Uvarint(s.Inst)
	e.Uvarint(uint64(len(s.Cut)))
	for _, c := range s.Cut {
		e.Uvarint(uint64(c))
	}
}

// encodeApp appends the application state, which write produces straight
// into e, behind a fixed-width length patched in afterwards.
func encodeApp(e *wire.Encoder, write func(io.Writer) error) error {
	at := e.Len()
	e.Uint64(0)
	if err := write(e); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(e.Bytes()[at:], uint64(e.Len()-at-8))
	return nil
}

// encodeTail appends the live requests, versions and dedup table.
func (s *snapshotBlob) encodeTail(e *wire.Encoder) {
	e.Uvarint(uint64(len(s.LiveReqs)))
	for _, lr := range s.LiveReqs {
		e.Uvarint(lr.Idx)
		e.Uvarint(lr.Req.Client)
		e.Uvarint(lr.Req.Seq)
		e.Uvarint(uint64(lr.Req.Class))
		e.BytesVal(lr.Req.Body)
	}
	e.Uvarint(uint64(len(s.Versions)))
	for _, v := range s.Versions {
		e.Uvarint(v)
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
}

// decodeSnapshotHead reads the header fields into s, leaving d at the
// application state. It returns the config schedule undecoded.
func decodeSnapshotHead(d *wire.Decoder, s *snapshotBlob) (configs []byte, err error) {
	if v := d.Byte(); d.Err() == nil && v != snapshotVersion {
		return nil, fmt.Errorf("rex: unsupported snapshot version %d", v)
	}
	configs = d.BytesVal()
	s.MarkID = d.Uvarint()
	s.Inst = d.Uvarint()
	if n := d.Count(1); d.Err() == nil {
		s.Cut = make(trace.Cut, n)
		for i := range s.Cut {
			s.Cut[i] = int32(d.Uvarint())
		}
	}
	return configs, d.Err()
}

// decodeSnapshotHeader reads only mark id, instance and cut — what
// accepting a pushed checkpoint needs — without touching the rest.
func decodeSnapshotHeader(buf []byte) (*snapshotBlob, error) {
	s := &snapshotBlob{}
	if _, err := decodeSnapshotHead(wire.NewDecoder(buf), s); err != nil {
		return nil, err
	}
	return s, nil
}

// decodeSnapshot decodes a whole checkpoint. App aliases buf; everything
// kept beyond a restore (request bodies, dedup responses) is copied.
func decodeSnapshot(buf []byte) (*snapshotBlob, error) {
	d := wire.NewDecoder(buf)
	s := &snapshotBlob{}
	configs, err := decodeSnapshotHead(d, s)
	if err != nil {
		return nil, err
	}
	if s.Configs, err = reconfig.DecodeSchedule(configs); err != nil {
		return nil, fmt.Errorf("rex: snapshot config schedule: %w", err)
	}
	s.App = d.Raw(d.Uint64())
	if n := d.Count(minLiveReqBytes); n > 0 {
		s.LiveReqs = make([]trace.IndexedReq, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			lr := trace.IndexedReq{Idx: d.Uvarint()}
			lr.Req.Client = d.Uvarint()
			lr.Req.Seq = d.Uvarint()
			lr.Req.Class = uint32(d.Uvarint())
			lr.Req.Body = append([]byte(nil), d.BytesVal()...)
			s.LiveReqs = append(s.LiveReqs, lr)
		}
	}
	if n := d.Count(1); n > 0 {
		s.Versions = make([]uint64, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			s.Versions = append(s.Versions, d.Uvarint())
		}
	}
	n := d.Count(minDedupBytes)
	s.Dedup = make(map[uint64]dedupEntry, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		c := d.Uvarint()
		de := dedupEntry{seq: d.Uvarint()}
		de.resp = append([]byte(nil), d.BytesVal()...)
		s.Dedup[c] = de
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// buildSnapshot serializes the application at a checkpoint mark whose cut
// replay has reached (every logical thread paused exactly at the cut). It
// returns the checkpoint at buf[snapHeadroom:], serialized once into a
// buffer presized from the newest checkpoint this replica holds, whoever
// built it, with the headroom free for snapFrame. The state can grow by
// up to a floor's worth of log between checkpoints, so the buffer leaves
// half as much again.
func (r *Replica) buildSnapshot(inc *incarnation, rep *sched.Replayer, m trace.Mark, inst uint64) ([]byte, error) {
	r.mu.Lock()
	hint := r.ckptSize
	r.mu.Unlock()
	e := wire.NewEncoder(make([]byte, snapHeadroom, snapHeadroom+hint+hint/2))
	blob := &snapshotBlob{
		MarkID:   m.ID,
		Inst:     inst,
		Cut:      m.Cut,
		LiveReqs: rep.LiveReqs(m.Cut),
		Versions: inc.rt.VersionsSnapshot(),
		Configs:  r.node.ChosenSnapshot().Configs,
	}
	blob.encodeHead(e)
	if err := encodeApp(e, inc.sm.WriteCheckpoint); err != nil {
		return nil, fmt.Errorf("rex: WriteCheckpoint: %w", err)
	}
	r.mu.Lock()
	blob.Dedup = r.dedup
	blob.encodeTail(e)
	r.mu.Unlock()
	return e.Bytes(), nil
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
	r.mu.Lock()
	r.noteSnapshotLocked(s.Inst, len(data))
	r.mu.Unlock()
	return s, true, nil
}

// noteSnapshotLocked records that the local store holds a checkpoint of
// size bytes at instance inst.
func (r *Replica) noteSnapshotLocked(inst uint64, size int) {
	if !r.haveSnap || inst > r.snapInst {
		r.snapInst, r.haveSnap, r.ckptSize = inst, true, size
	}
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

// rebuildHook, when set (tests only), runs in every rebuild between
// building the new incarnation and publishing it.
var rebuildHook func(*Replica)

// rebuild reconstructs the replica's execution state — a fresh runtime and
// application — from the latest checkpoint plus the committed trace, and
// publishes it as a new incarnation replaying as a secondary. It serves
// initial startup, crash recovery, rejoin, and primary rollback after
// demotion (§5.2). A replica that faulted meanwhile publishes nothing.
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
		logBytes := 0 // since the newest mark, for the log-growth floor
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
			if len(delta.Marks) > 0 {
				logBytes = 0
			} else {
				logBytes += len(raw)
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
		rt.CheckVersions = !r.cfg.UnsafeBrokenReplay
		rt.DisablePruning = r.cfg.DisablePruning
		rt.DisableConflictElision = r.cfg.DisableConflictElision
		rt.UnsafeSkipEdgeWaits = r.cfg.UnsafeBrokenReplay
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

		inc := &incarnation{seq: 1, rt: rt, sm: sm, timers: host.specs}
		inc.classifier, _ = sm.(ConflictClassifier)
		if rebuildHook != nil {
			rebuildHook(r)
		}

		r.mu.Lock()
		if ferr := r.faultErr; ferr != nil {
			r.mu.Unlock()
			return fmt.Errorf("rex: faulted during rebuild: %w", ferr)
		}
		old := r.inc
		if old != nil {
			inc.seq = old.seq + 1
		}
		r.dropPrimaryLocked()
		r.inc = inc
		if st.Seq >= r.applied {
			r.applied = st.Seq
			r.logBytes = logBytes
		}
		if latest != nil && latest.Epoch > r.member.Epoch {
			r.member = latest.Clone()
		}
		r.spawnExecution(inc)
		r.wakeAllLocked()
		r.mu.Unlock()
		if old != nil {
			old.rt.Replayer().Abort() // release the previous incarnation's workers
		}
		r.logf("rebuilt (incarnation %d) from %s at applied=%d",
			inc.seq, map[bool]string{true: "checkpoint", false: "initial state"}[haveSnap], st.Seq)
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
		r.broadcastCtrl((&ctrlMsg{Kind: ctrlSnapRequest}).encode())
		if !r.sleepInterruptible(100 * time.Millisecond) {
			return ErrStopped
		}
		r.mu.Lock()
		ok := r.haveSnap && r.snapInst >= minInst
		r.mu.Unlock()
		if ok {
			return nil
		}
	}
	return fmt.Errorf("rex: no peer supplied a checkpoint covering instance %d", minInst)
}
