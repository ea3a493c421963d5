package core

import (
	"encoding/binary"

	"rex/internal/sched"
	"rex/internal/transport"
	"rex/internal/wire"
)

// Control-plane message kinds (channel 1 of the transport mux). A
// payload's first byte is its kind: the mux routes every kind from
// ctrlKindBase up to the control plane, and every Paxos kind lies below it.
const (
	ctrlKindBase    byte = 0x80
	ctrlStatus      byte = ctrlKindBase + 1 // secondary → all: replay progress
	ctrlSnapRequest byte = ctrlKindBase + 2 // rebuilding replica → all: need a checkpoint
	ctrlSnapBlob    byte = ctrlKindBase + 3 // checkpoint copy (push after snapshot, or reply)
)

type ctrlMsg struct {
	Kind    byte
	Applied uint64
	Backlog uint64
	Blob    []byte

	from int // sender of a received message
}

func (m *ctrlMsg) encode() []byte {
	e := wire.NewEncoder(nil)
	e.Byte(m.Kind)
	e.Uvarint(m.Applied)
	e.Uvarint(m.Backlog)
	e.BytesVal(m.Blob)
	return e.Bytes()
}

// decodeCtrl decodes a control message. Blob aliases buf, which the
// caller keeps (receiveCtrl), so a pushed checkpoint is never copied again.
func decodeCtrl(buf []byte) (*ctrlMsg, bool) {
	d := wire.NewDecoder(buf)
	m := &ctrlMsg{Kind: d.Byte()}
	m.Applied = d.Uvarint()
	m.Backlog = d.Uvarint()
	m.Blob = d.BytesVal()
	return m, d.Err() == nil
}

// snapFrame returns the ctrlSnapBlob frame for the checkpoint at
// buf[snapHeadroom:] (as buildSnapshot lays it out): the bytes
// ctrlMsg.encode would produce, with the header written into the headroom
// instead of the blob being copied behind it.
func snapFrame(buf []byte) []byte {
	var hdr [snapHeadroom]byte
	h := append(hdr[:0], ctrlSnapBlob, 0, 0) // kind, Applied, Backlog
	h = binary.AppendUvarint(h, uint64(len(buf)-snapHeadroom))
	start := snapHeadroom - len(h)
	copy(buf[start:], h)
	return buf[start:]
}

// broadcastCtrl sends an encoded control message to every other member.
func (r *Replica) broadcastCtrl(payload []byte) {
	r.mu.Lock()
	members := r.member.Members()
	r.mu.Unlock()
	for _, i := range members {
		if i != r.cfg.ID {
			r.ctrl.Send(i, payload)
		}
	}
}

// receiveCtrl is the control channel's transport handler. It runs on the
// endpoint's reading goroutine: it decodes the message and queues it for
// ctrlLoop. A checkpoint push keeps its frame (Delivery.Keep): one larger
// than the read buffer was read into a buffer of its own, which becomes
// the blob, so a pushed checkpoint is allocated once.
func (r *Replica) receiveCtrl(d transport.Delivery) {
	payload := d.Payload
	if len(payload) > 0 && payload[0] == ctrlSnapBlob {
		payload = d.Keep()
	}
	m, valid := decodeCtrl(payload)
	if !valid {
		r.logf("dropping corrupt control message from %d", d.From)
		return
	}
	m.from = d.From
	r.ctrlQ.Send(m)
}

// ctrlLoop handles control-plane traffic.
func (r *Replica) ctrlLoop() {
	for {
		v, ok := r.ctrlQ.Recv()
		if !ok {
			return
		}
		m := v.(*ctrlMsg)
		from := m.from
		switch m.Kind {
		case ctrlStatus:
			r.mu.Lock()
			// Measure the instance lag once, on arrival: comparing the
			// report with a later frontier would count its age as lag
			// (DESIGN.md §5, "Flow control").
			var lag uint64
			if m.Applied < r.applied {
				lag = r.applied - m.Applied
			}
			st := peerStatus{lag: lag, backlog: m.Backlog, at: r.e.Now()}
			r.peers[from] = st
			promo := r.promotionForLocked(from, st)
			r.cond.Broadcast()
			r.mu.Unlock()
			if promo != nil {
				r.logf("learner %d caught up (applied=%d); proposing promotion", from, m.Applied)
				r.node.Propose(promo)
			}
		case ctrlSnapRequest:
			// Rare (a rebuild or a compaction gap), so the stored copy is
			// read and re-framed.
			_, data, ok, err := r.cfg.Snapshots.Load()
			if err == nil && ok {
				r.ctrl.Send(from, (&ctrlMsg{Kind: ctrlSnapBlob, Blob: data}).encode())
			}
		case ctrlSnapBlob:
			r.acceptSnapshotCopy(m.Blob, from)
		}
	}
}

// acceptSnapshotCopy stores a checkpoint pushed by the designated
// snapshotter and garbage-collects the covered trace prefix (§3.3). Only
// the header is decoded; the blob is stored as received.
func (r *Replica) acceptSnapshotCopy(blob []byte, from int) {
	s, err := decodeSnapshotHeader(blob)
	if err != nil {
		r.logf("corrupt snapshot copy from %d: %v", from, err)
		return
	}
	r.mu.Lock()
	stale := r.haveSnap && r.snapInst >= s.Inst
	r.mu.Unlock()
	if stale {
		return // already have an equal or newer checkpoint
	}
	// As for a checkpoint built here: the chosen log this replica holds
	// goes to disk first (a node not started yet holds nothing unsynced).
	// A copy can still be ahead of it, when the learner has not reached
	// s.Inst yet; rebuild handles that (errSnapshotAhead).
	if r.nodeStarted && !r.node.Sync() {
		return
	}
	if err := r.cfg.Snapshots.Save(s.MarkID, blob); err != nil {
		r.logf("saving snapshot copy failed: %v", err)
		return
	}
	r.mu.Lock()
	r.noteSnapshotLocked(s.Inst, len(blob))
	r.cond.Broadcast()
	// Garbage-collect the covered prefix of a secondary's trace; the
	// primary's keeps nothing below its last consistent cut (fold).
	var rep *sched.Replayer
	if r.secondaryLocked() {
		rep = r.replayerOfLocked()
	}
	r.mu.Unlock()
	if rep != nil {
		rep.ForgetThrough(s.Cut)
	}
	r.node.Compact(s.Inst)
	r.logf("accepted checkpoint %d (instance %d) from replica %d", s.MarkID, s.Inst, from)
}
