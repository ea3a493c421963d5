// Package rebalance migrates key-hash ranges between replica groups
// under live traffic. It has three pieces:
//
//   - a wrapper state machine (WrapFactory) that interposes on every
//     group's application, enforcing replicated per-range ownership: a
//     routed request whose range this group does not own — or owns at an
//     older epoch than the request was routed under — is NACKed
//     deterministically instead of applied;
//   - a small set of replicated control operations (freeze, import,
//     release, adopt, merge-owned, propose/finalize map) that drive the
//     migration state machine through the group's ordinary consensus
//     sequence, so ownership changes are agreed exactly like application
//     writes and survive failover and replay;
//   - a Coordinator that sequences a split, merge, or move: propose the
//     successor map at the map home (group 0), warm-copy the range,
//     freeze it behind the write barrier, ship the final delta, flip
//     ownership (release at the source strictly before adopt at the
//     destination), and finalize.
//
// The map itself lives in the map home group's replicated state — the
// "dedicated map consensus sequence" — and routers fetch it with a
// linearizable query, so every router converges on the newest version
// and wrong-group NACKs carry the version that proves staleness.
package rebalance

import (
	"fmt"

	"rex/internal/shard"
	"rex/internal/wire"
)

// Control operation codes (replicated, via Apply).
const (
	opFreeze      byte = 1 // lo, hi, ver: write-barrier the span
	opImportStage byte = 2 // lo, hi, ver, blob: stage imported state
	opRelease     byte = 3 // lo, hi, ver: drop span + ownership at source
	opAdopt       byte = 4 // lo, hi, ver: apply staged blob + own span
	opMergeOwned  byte = 5 // lo, hi, ver: fuse owned entries to one epoch
	opProposeMap  byte = 6 // mapBytes: CAS-install version+1 at map home
	opFinalizeMap byte = 7 // ver: clear the pending flag at map home

	// Control query codes (read-only, via Query).
	qExport byte = 32 // lo, hi: serialize the span (linearizable drain)
	qGetMap byte = 33 // current map + pending flag
	qStatus byte = 34 // group migration status
)

func spanOp(op byte, lo, hi, ver uint64) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(op)
	e.Uvarint(lo)
	e.Uvarint(hi)
	e.Uvarint(ver)
	return shard.Envelope(shard.EnvCtrl, 0, 0, e.Bytes())
}

// FreezeOp encodes the write-barrier control op for [lo, hi] at map
// version ver.
func FreezeOp(lo, hi, ver uint64) []byte { return spanOp(opFreeze, lo, hi, ver) }

// ReleaseOp encodes the source-side ownership drop for [lo, hi].
func ReleaseOp(lo, hi, ver uint64) []byte { return spanOp(opRelease, lo, hi, ver) }

// AdoptOp encodes the destination-side ownership flip for [lo, hi].
func AdoptOp(lo, hi, ver uint64) []byte { return spanOp(opAdopt, lo, hi, ver) }

// MergeOwnedOp encodes the owner-side fuse of [lo, hi] to epoch ver.
func MergeOwnedOp(lo, hi, ver uint64) []byte { return spanOp(opMergeOwned, lo, hi, ver) }

// ImportStageOp encodes staging blob for [lo, hi] at map version ver.
func ImportStageOp(lo, hi, ver uint64, blob []byte) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(opImportStage)
	e.Uvarint(lo)
	e.Uvarint(hi)
	e.Uvarint(ver)
	e.BytesVal(blob)
	return shard.Envelope(shard.EnvCtrl, 0, 0, e.Bytes())
}

// ProposeMapOp encodes the map-home CAS install of m (must be the
// current version + 1).
func ProposeMapOp(m *shard.ShardMap) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(opProposeMap)
	e.BytesVal(m.EncodeBytes())
	return shard.Envelope(shard.EnvCtrl, 0, 0, e.Bytes())
}

// DecodeProposeReply splits a ProposeMapOp reply: whether the install was
// accepted, and the map now current at the home (the proposal on accept,
// the existing map on version mismatch).
func DecodeProposeReply(payload []byte) (accepted bool, cur *shard.ShardMap, err error) {
	d := wire.NewDecoder(payload)
	accepted = d.Bool()
	mb := d.BytesVal()
	if d.Err() != nil {
		return false, nil, fmt.Errorf("rebalance: propose reply: %w", d.Err())
	}
	cur, err = shard.DecodeShardMapBytes(mb)
	return accepted, cur, err
}

// FinalizeMapOp encodes clearing the pending flag for version ver.
func FinalizeMapOp(ver uint64) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(opFinalizeMap)
	e.Uvarint(ver)
	return shard.Envelope(shard.EnvCtrl, 0, 0, e.Bytes())
}

// ExportQuery encodes the range-export control query.
func ExportQuery(lo, hi uint64) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(qExport)
	e.Uvarint(lo)
	e.Uvarint(hi)
	return shard.Envelope(shard.EnvCtrl, 0, 0, e.Bytes())
}

// GetMapQuery encodes the map-fetch control query (map home only).
func GetMapQuery() []byte {
	return shard.Envelope(shard.EnvCtrl, 0, 0, []byte{qGetMap})
}

// DecodeGetMapReply splits a GetMapQuery reply.
func DecodeGetMapReply(payload []byte) (m *shard.ShardMap, pending bool, err error) {
	d := wire.NewDecoder(payload)
	pending = d.Bool()
	mb := d.BytesVal()
	if d.Err() != nil {
		return nil, false, fmt.Errorf("rebalance: getmap reply: %w", d.Err())
	}
	m, err = shard.DecodeShardMapBytes(mb)
	return m, pending, err
}

// StatusQuery encodes the group-status control query.
func StatusQuery() []byte {
	return shard.Envelope(shard.EnvCtrl, 0, 0, []byte{qStatus})
}

// Span is one owned/frozen/staged hash span in a GroupStatus.
type Span struct {
	Lo, Hi uint64
	// Epoch is the owned entry's epoch, the freeze's target map version,
	// or the staged blob's target map version.
	Epoch uint64
	// Bytes is the staged blob size (staged spans only).
	Bytes int
}

// GroupStatus is one group's migration state, as reported by StatusQuery.
type GroupStatus struct {
	Version uint64 // highest map version this group's state reflects
	Home    bool
	Pending bool // map home only: a proposed map awaits finalize
	Owned   []Span
	Frozen  []Span
	Staged  []Span
}

func encodeSpans(e *wire.Encoder, spans []Span) {
	e.Uvarint(uint64(len(spans)))
	for _, s := range spans {
		e.Uvarint(s.Lo)
		e.Uvarint(s.Hi)
		e.Uvarint(s.Epoch)
		e.Uvarint(uint64(s.Bytes))
	}
}

func decodeSpans(d *wire.Decoder) []Span {
	n := d.Count(4) // a span is four uvarints
	out := make([]Span, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		out = append(out, Span{Lo: d.Uvarint(), Hi: d.Uvarint(), Epoch: d.Uvarint(), Bytes: int(d.Uvarint())})
	}
	return out
}

func (gs *GroupStatus) encode() []byte {
	e := wire.NewEncoder(nil)
	e.Uvarint(gs.Version)
	e.Bool(gs.Home)
	e.Bool(gs.Pending)
	encodeSpans(e, gs.Owned)
	encodeSpans(e, gs.Frozen)
	encodeSpans(e, gs.Staged)
	return e.Bytes()
}

// DecodeGroupStatus splits a StatusQuery reply.
func DecodeGroupStatus(payload []byte) (*GroupStatus, error) {
	d := wire.NewDecoder(payload)
	gs := &GroupStatus{Version: d.Uvarint(), Home: d.Bool(), Pending: d.Bool()}
	gs.Owned = decodeSpans(d)
	gs.Frozen = decodeSpans(d)
	gs.Staged = decodeSpans(d)
	if d.Err() != nil {
		return nil, fmt.Errorf("rebalance: status reply: %w", d.Err())
	}
	return gs, nil
}

// String renders the status for rexctl.
func (gs *GroupStatus) String() string {
	s := fmt.Sprintf("version %d", gs.Version)
	if gs.Home {
		s += " (map home"
		if gs.Pending {
			s += ", map pending finalize"
		}
		s += ")"
	}
	for _, sp := range gs.Owned {
		s += fmt.Sprintf("\n  owned  [%#016x, %#016x] epoch %d", sp.Lo, sp.Hi, sp.Epoch)
	}
	for _, sp := range gs.Frozen {
		s += fmt.Sprintf("\n  frozen [%#016x, %#016x] -> v%d", sp.Lo, sp.Hi, sp.Epoch)
	}
	for _, sp := range gs.Staged {
		s += fmt.Sprintf("\n  staged [%#016x, %#016x] -> v%d (%d bytes)", sp.Lo, sp.Hi, sp.Epoch, sp.Bytes)
	}
	return s
}
