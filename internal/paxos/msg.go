// Package paxos implements the multi-instance Paxos engine Rex agrees on
// traces with (§3.1): ballot-based leader election with a heartbeat failure
// detector, a single active consensus instance at a time, learner catch-up,
// and durable acceptor state.
//
// The interface mirrors the paper's: Propose enqueues a value for the next
// instance; OnCommitted fires for every chosen instance in order;
// OnBecomeLeader fires when the local replica finishes phase 1 across all
// open instances without seeing a higher ballot; OnNewLeader(r) fires
// whenever a higher ballot from replica r is observed.
//
// Durability: acceptor state (promises, accepted values, advance markers,
// membership) is forced to the WAL before any message that advertises it.
// Chosen records are not forced: a chosen value survives on the accepted
// records a quorum forced, so OnCommitted fires without waiting on the
// local disk, and a chosen record that points at the local accepted one
// carries no value of its own. After a crash the recovered chosen log may
// be shorter than before, never different; the learner re-fetches the
// rest.
package paxos

import (
	"fmt"
	"slices"
	"sync"

	"rex/internal/wire"
)

// Ballot orders competing proposers: higher rounds win, ties broken by
// replica id.
type Ballot struct {
	Round uint64
	Node  uint32
}

// Less reports b < o.
func (b Ballot) Less(o Ballot) bool {
	if b.Round != o.Round {
		return b.Round < o.Round
	}
	return b.Node < o.Node
}

// IsZero reports whether b is the zero ballot (never promised).
func (b Ballot) IsZero() bool { return b.Round == 0 && b.Node == 0 }

func (b Ballot) String() string { return fmt.Sprintf("%d.%d", b.Round, b.Node) }

type msgKind uint8

const (
	mInvalid msgKind = iota
	// mPrepare: phase 1a — candidate asks for promises covering every
	// instance ≥ FromInst.
	mPrepare
	// mPromise: phase 1b — acceptor's promise, carrying its chosen count
	// and any accepted value at or beyond FromInst.
	mPromise
	// mNack rejects a Prepare or Accept that lost to a higher ballot.
	mNack
	// mAccept: phase 2a — leader proposes Val in instance Inst.
	mAccept
	// mAccepted: phase 2b — acceptor accepted (Ballot, Inst).
	mAccepted
	// mCommit announces a chosen value.
	mCommit
	// mHeartbeat is the leader's liveness beacon; carries its chosen count
	// so laggards detect gaps.
	mHeartbeat
	// mLearn asks a peer for chosen values starting at FromInst.
	mLearn
	// mLearnReply returns a batch of chosen values starting at FromInst.
	mLearnReply
	// mLearnNack tells a learner its requested prefix was compacted away;
	// FromInst carries the sender's compaction horizon. The learner needs
	// a checkpoint transfer (handled by the Rex layer) before it can
	// resume learning.
	mLearnNack
	// mEpochNack rejects a prepare/accept/heartbeat whose Epoch is behind
	// the receiver's active membership epoch. Epoch/FromInst/Val carry the
	// receiver's active membership (and its activation instance) so a
	// removed or lagging node learns the configuration it missed.
	mEpochNack
	// mLeaseGrant is a voter's read-lease grant in reply to a heartbeat:
	// Inst echoes the heartbeat's send-time stamp so the leader computes
	// lease expiry purely on its own clock. A granting voter refuses
	// prepares from anyone but the grantee until the grant expires.
	mLeaseGrant
	// mCommitRef is mCommit by reference: the value the leader of Ballot
	// proposed in Inst is chosen, and the receiver — a voter of Inst's
	// configuration, which was sent that value in the Accept — is expected
	// to hold it already. It carries no value.
	mCommitRef

	// maxKind is the highest message kind. Every kind stays below 0x80:
	// the first byte of a payload is its kind, and the Rex layer's
	// transport mux routes the upper half of the byte range to its
	// control plane.
	maxKind = mCommitRef
)

func (k msgKind) String() string {
	switch k {
	case mPrepare:
		return "prepare"
	case mPromise:
		return "promise"
	case mNack:
		return "nack"
	case mAccept:
		return "accept"
	case mAccepted:
		return "accepted"
	case mCommit:
		return "commit"
	case mHeartbeat:
		return "heartbeat"
	case mLearn:
		return "learn"
	case mLearnReply:
		return "learn-reply"
	case mLearnNack:
		return "learn-nack"
	case mEpochNack:
		return "epoch-nack"
	case mLeaseGrant:
		return "lease-grant"
	case mCommitRef:
		return "commit-ref"
	}
	return fmt.Sprintf("msg(%d)", uint8(k))
}

// acceptedEntry is an acceptor's record for one instance.
type acceptedEntry struct {
	Inst   uint64
	Ballot Ballot
	Val    []byte
}

// message is the single wire type exchanged between nodes; fields are used
// per kind. Messages come from the node's free list (msgPool), so a
// received one is a pointer the inbox carries without boxing.
type message struct {
	Kind      msgKind
	Ballot    Ballot
	Inst      uint64 // mAccept/mAccepted/mCommit/mCommitRef: instance; mHeartbeat/mLeaseGrant: lease time stamp
	FromInst  uint64 // mPrepare/mLearn/mLearnReply: starting instance
	ChosenSeq uint64 // mPromise/mHeartbeat: sender's chosen count
	Epoch     uint64 // membership epoch governing the message's instance
	Val       []byte // mAccept/mCommit: proposal value; mEpochNack: membership
	Accepted  []acceptedEntry
	Vals      [][]byte // mLearnReply: chosen values

	from int  // sender of a received message
	held bool // kept past its handling: a Promise in n.promises
}

// encodeTo appends m's wire form to e.
func (m *message) encodeTo(e *wire.Encoder) {
	e.Byte(byte(m.Kind))
	e.Uvarint(m.Ballot.Round)
	e.Uvarint(uint64(m.Ballot.Node))
	e.Uvarint(m.Inst)
	e.Uvarint(m.FromInst)
	e.Uvarint(m.ChosenSeq)
	e.Uvarint(m.Epoch)
	e.BytesVal(m.Val)
	e.Uvarint(uint64(len(m.Accepted)))
	for _, a := range m.Accepted {
		e.Uvarint(a.Inst)
		e.Uvarint(a.Ballot.Round)
		e.Uvarint(uint64(a.Ballot.Node))
		e.BytesVal(a.Val)
	}
	e.Uvarint(uint64(len(m.Vals)))
	for _, v := range m.Vals {
		e.BytesVal(v)
	}
}

// Minimum encoded sizes of the repeated items, which bound their counts by
// the unread input.
const (
	minAcceptedBytes = 4 // instance, ballot round, ballot node, value length
	minValBytes      = 1 // value length
)

// decode parses a received frame into m. Every value a node may keep
// past handling — an Accept's or a Commit's value, each promised entry's
// value, each learned value, a membership — is copied out of a lent
// frame, which the endpoint overwrites once its handler returns
// (transport.Delivery); a frame the receiver owns is aliased. Nothing
// else is copied, so an Accepted, a CommitRef or a heartbeat decodes
// without allocating.
func (m *message) decode(buf []byte, lent bool) error {
	d := wire.NewDecoder(buf)
	m.Kind = msgKind(d.Byte())
	m.Ballot.Round = d.Uvarint()
	m.Ballot.Node = uint32(d.Uvarint())
	m.Inst = d.Uvarint()
	m.FromInst = d.Uvarint()
	m.ChosenSeq = d.Uvarint()
	m.Epoch = d.Uvarint()
	m.Val = keepVal(d.BytesVal(), lent)
	m.Accepted, m.Vals = m.Accepted[:0], m.Vals[:0]
	if n := d.Count(minAcceptedBytes); n > 0 {
		m.Accepted = slices.Grow(m.Accepted, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			a := acceptedEntry{Inst: d.Uvarint()}
			a.Ballot.Round = d.Uvarint()
			a.Ballot.Node = uint32(d.Uvarint())
			a.Val = keepVal(d.BytesVal(), lent)
			m.Accepted = append(m.Accepted, a)
		}
	}
	if n := d.Count(minValBytes); n > 0 {
		m.Vals = slices.Grow(m.Vals, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			m.Vals = append(m.Vals, keepVal(d.BytesVal(), lent))
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if m.Kind == mInvalid || m.Kind > maxKind {
		return wire.ErrCorrupt
	}
	return nil
}

// keepVal returns a decoded value as the message holds it: nil when it is
// empty, so an empty value reads as absent just as the sender's nil did;
// an exact-size copy when the frame is lent; else the frame's bytes.
func keepVal(b []byte, lent bool) []byte {
	switch {
	case len(b) == 0:
		return nil
	case lent:
		return append(make([]byte, 0, len(b)), b...)
	}
	return b[:len(b):len(b)]
}

// msgPool is a node's free list of messages. Endpoint readers take
// messages to decode into, the event loop takes outgoing ones, and the
// event loop gives both back once handled or sent.
type msgPool struct{ free sync.Pool }

func (p *msgPool) get() *message {
	if m, ok := p.free.Get().(*message); ok {
		return m
	}
	return new(message)
}

// put gives back m, which its caller owns and drops: no other holder of m
// may remain.
func (p *msgPool) put(m *message) {
	*m = message{}
	p.free.Put(m)
}
