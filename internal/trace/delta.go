package trace

import (
	"errors"
	"fmt"

	"rex/internal/wire"
)

// Delta is the unit of agreement: the trace growth a primary proposes on
// top of the previously committed trace (§3.1 — "a proposal to a new
// instance can contain not the full trace, but only the additional
// information on top of the committed trace in the previous instance").
type Delta struct {
	// Rebase, when non-nil, instructs the receiver to truncate its trace to
	// this cut before applying the delta. A new primary issues exactly one
	// rebasing delta after takeover to discard the residue beyond the last
	// consistent cut (§3.2).
	Rebase Cut
	// Base is the expected per-thread frontier (after any rebase) that this
	// delta extends; a mismatch means a protocol bug and fails Apply.
	Base Cut
	// ReqBase is the expected length of the request table before applying.
	ReqBase uint64
	// Threads holds the appended events per logical thread.
	Threads []ThreadLog
	// Reqs are the request payloads appended by this delta.
	Reqs []Req
	// Marks are checkpoint marks appended by this delta.
	Marks []Mark

	classes []uint32 // DecodeFrom's conflict-class table, reused
}

// ThreadLog is the run of events a delta appends to one logical thread,
// with the causal edges into them packed per thread: the sources of
// Events[i] are Edges[InEnd[i-1]:InEnd[i]] (starting at 0 for i = 0).
type ThreadLog struct {
	Events []Event
	Edges  []EventID
	InEnd  []int32
}

// Append adds an event with its incoming edge sources.
func (l *ThreadLog) Append(ev Event, in []EventID) {
	l.Events = append(l.Events, ev)
	l.Edges = append(l.Edges, in...)
	l.InEnd = append(l.InEnd, int32(len(l.Edges)))
}

// In returns the incoming edge sources of Events[i].
func (l *ThreadLog) In(i int) []EventID {
	var lo int32
	if i > 0 {
		lo = l.InEnd[i-1]
	}
	hi := l.InEnd[i]
	return l.Edges[lo:hi:hi]
}

// Reset empties l, keeping its storage for reuse.
func (l *ThreadLog) Reset() {
	l.Events, l.Edges, l.InEnd = l.Events[:0], l.Edges[:0], l.InEnd[:0]
}

// ErrBaseMismatch reports that a delta does not extend the trace it was
// applied to.
var ErrBaseMismatch = errors.New("trace: delta base mismatch")

// EventCount returns the number of events the delta appends.
func (d *Delta) EventCount() int {
	n := 0
	for i := range d.Threads {
		n += len(d.Threads[i].Events)
	}
	return n
}

// EdgeCount returns the number of causal edges the delta appends.
func (d *Delta) EdgeCount() int {
	n := 0
	for i := range d.Threads {
		n += len(d.Threads[i].Edges)
	}
	return n
}

// Empty reports whether the delta appends nothing and carries no rebase.
func (d *Delta) Empty() bool {
	return d.Rebase == nil && d.EventCount() == 0 && len(d.Reqs) == 0 && len(d.Marks) == 0
}

// Apply extends tr by d, performing the rebase truncation first if present.
// Events, edges and requests are copied into the trace's storage once;
// request bodies are shared with d, not copied.
//
// A rebase cut outside the locally available window (beyond the frontier or
// inside the collected prefix) yields ErrCutBeyondTrace: the local trace has
// desynchronized from the committed stream and the replica must re-sync from
// a checkpoint. Other base disagreements yield ErrBaseMismatch (a protocol
// bug).
func (tr *Trace) Apply(d *Delta) error {
	if d.Rebase != nil {
		cur := tr.Cut()
		if !cur.AtLeast(d.Rebase) {
			return fmt.Errorf("%w: rebase cut %v beyond local trace %v", ErrCutBeyondTrace, d.Rebase, cur)
		}
		if err := tr.TruncateTo(d.Rebase); err != nil {
			return err
		}
	}
	if len(d.Threads) != len(tr.threads) {
		return fmt.Errorf("%w: delta has %d threads, trace has %d", ErrBaseMismatch, len(d.Threads), len(tr.threads))
	}
	if !tr.atFrontier(d.Base) {
		return fmt.Errorf("%w: delta base %v, trace frontier %v", ErrBaseMismatch, d.Base, tr.Cut())
	}
	if have := tr.reqs.end; have != d.ReqBase {
		return fmt.Errorf("%w: delta req base %d, trace has %d reqs", ErrBaseMismatch, d.ReqBase, have)
	}
	for t := range d.Threads {
		dl, l := &d.Threads[t], &tr.threads[t]
		for i, ev := range dl.Events {
			l.push(ev, dl.In(i))
		}
	}
	for _, r := range d.Reqs {
		tr.reqs.push(r)
	}
	tr.Marks = append(tr.Marks, d.Marks...)
	return nil
}

// deltaVersion is the only delta encoding. Version 2 added the compact
// conflict-class table; nothing writes version 1 any more.
const deltaVersion = 2

func encodeCut(e *wire.Encoder, c Cut) {
	e.Uvarint(uint64(len(c)))
	for _, v := range c {
		e.Uvarint(uint64(v))
	}
}

// decodeCut reads a cut into dst's storage (nil allocates a fresh one).
// Each entry takes at least one byte, so a length beyond the unread input
// is corruption, caught before allocating for it.
func decodeCut(d *wire.Decoder, dst Cut) Cut {
	n := d.Uvarint()
	if d.Err() != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.Fail(wire.ErrCorrupt)
		return nil
	}
	c := dst[:0]
	if c == nil {
		c = make(Cut, 0, n) // non-nil even when empty: a nil Rebase means none
	}
	for i := uint64(0); i < n; i++ {
		c = append(c, int32(d.Uvarint()))
	}
	return c
}

// Encode appends the wire form of d to e. The encoding is the Paxos
// proposal value and the WAL record body; it averages roughly 16 bytes per
// synchronization event plus request payloads, matching §6.3.
func (d *Delta) Encode(e *wire.Encoder) {
	e.Byte(deltaVersion)
	e.Bool(d.Rebase != nil)
	if d.Rebase != nil {
		encodeCut(e, d.Rebase)
	}
	encodeCut(e, d.Base)
	e.Uvarint(d.ReqBase)
	e.Uvarint(uint64(len(d.Threads)))
	for t := range d.Threads {
		l := &d.Threads[t]
		e.Uvarint(uint64(len(l.Events)))
		for i, ev := range l.Events {
			e.Byte(byte(ev.Kind))
			e.Uvarint(uint64(ev.Res))
			e.Uvarint(ev.Arg)
			in := l.In(i)
			e.Uvarint(uint64(len(in)))
			for _, src := range in {
				e.Uvarint(uint64(src.Thread))
				e.Uvarint(uint64(src.Clock))
			}
		}
	}
	e.Uvarint(uint64(len(d.Reqs)))
	// Compact conflict-class table: each distinct non-zero class id is
	// listed once, and each request carries a 1-based uvarint index into
	// the table (0 = the catch-all class). A delta dominated by a few hot
	// classes pays ~1 byte per request instead of re-encoding the id.
	var classes []uint32
	for _, r := range d.Reqs {
		if r.Class == 0 {
			continue
		}
		seen := false
		for _, c := range classes {
			if c == r.Class {
				seen = true
				break
			}
		}
		if !seen {
			classes = append(classes, r.Class)
		}
	}
	e.Uvarint(uint64(len(classes)))
	for _, c := range classes {
		e.Uvarint(uint64(c))
	}
	for _, r := range d.Reqs {
		e.Uvarint(r.Client)
		e.Uvarint(r.Seq)
		idx := uint64(0)
		for i, c := range classes {
			if c == r.Class {
				idx = uint64(i + 1)
				break
			}
		}
		e.Uvarint(idx)
		e.BytesVal(r.Body)
	}
	e.Uvarint(uint64(len(d.Marks)))
	for _, m := range d.Marks {
		e.Uvarint(m.ID)
		encodeCut(e, m.Cut)
	}
}

// EncodeBytes returns the wire form of d.
func (d *Delta) EncodeBytes() []byte {
	return d.EncodeBytesHint(0)
}

// EncodeBytesHint returns the wire form of d, encoding through a pooled
// scratch buffer pre-sized to sizeHint (callers pass the previous delta's
// encoded size). The returned slice is exact-length and owned by the
// caller; steady state costs one allocation (the copy), not the O(log n)
// growth reallocations of a cold encoder.
func (d *Delta) EncodeBytesHint(sizeHint int) []byte {
	e := wire.GetEncoder(sizeHint)
	d.Encode(e)
	out := e.AppendCopy(make([]byte, 0, e.Len()))
	e.Release()
	return out
}

// DecodeDeltaBytes parses a delta from buf into a fresh Delta. Request
// bodies alias buf.
func DecodeDeltaBytes(buf []byte) (*Delta, error) {
	d := new(Delta)
	if err := d.DecodeFrom(buf); err != nil {
		return nil, err
	}
	return d, nil
}

// DecodeFrom replaces d's contents with the delta encoded in buf, reusing
// d's storage, so a decoder that keeps one scratch Delta allocates nothing
// once it has seen its largest delta. Request bodies alias buf. Rebase and
// each mark's cut are freshly allocated (they are rare, and a trace or
// replayer keeps marks); everything else is overwritten by the next
// DecodeFrom, so a caller keeps only what Apply copied out. On error d is
// left empty.
func (d *Delta) DecodeFrom(buf []byte) error {
	err := d.decode(wire.NewDecoder(buf))
	if err != nil {
		d.Rebase, d.Base, d.ReqBase = nil, d.Base[:0], 0
		for t := range d.Threads {
			d.Threads[t].Reset()
		}
		d.Threads, d.Reqs, d.Marks = d.Threads[:0], d.Reqs[:0], d.Marks[:0]
	}
	return err
}

// Minimum encoded sizes, used to reject counts the unread input cannot
// hold before looping or allocating for them.
const (
	minEventBytes = 4 // kind, res, arg, edge count
	minEdgeBytes  = 2 // thread, clock
	minReqBytes   = 4 // client, seq, class index, body length
	minMarkBytes  = 2 // id, cut length
)

func (d *Delta) decode(dec *wire.Decoder) error {
	v := dec.Byte()
	if dec.Err() == nil && v != deltaVersion {
		return fmt.Errorf("trace: unsupported delta version %d", v)
	}
	d.Rebase = nil
	if dec.Bool() {
		d.Rebase = decodeCut(dec, nil)
	}
	d.Base = decodeCut(dec, d.Base)
	d.ReqBase = dec.Uvarint()
	// A count the input cannot hold fails the decoder and reads as zero,
	// so every later loop is skipped; DecodeFrom then discards d.
	nThreads := dec.Count(1)
	if nThreads > 1<<16 {
		return wire.ErrCorrupt
	}
	if cap(d.Threads) < nThreads {
		d.Threads = make([]ThreadLog, nThreads)
	}
	d.Threads = d.Threads[:nThreads]
	for t := range d.Threads {
		l := &d.Threads[t]
		l.Reset()
		n := dec.Count(minEventBytes)
		for i := 0; i < n; i++ {
			kind := Kind(dec.Byte())
			if dec.Err() == nil && (kind == KindInvalid || kind >= kindMax) {
				return fmt.Errorf("trace: invalid event kind %d", kind)
			}
			l.Events = append(l.Events, Event{Kind: kind, Res: uint32(dec.Uvarint()), Arg: dec.Uvarint()})
			nIn := dec.Count(minEdgeBytes)
			for j := 0; j < nIn; j++ {
				l.Edges = append(l.Edges, EventID{Thread: int32(dec.Uvarint()), Clock: int32(dec.Uvarint())})
			}
			l.InEnd = append(l.InEnd, int32(len(l.Edges)))
		}
	}
	nReqs := dec.Count(minReqBytes)
	classes := d.classes[:0]
	nc := dec.Count(1)
	for i := 0; i < nc; i++ {
		classes = append(classes, uint32(dec.Uvarint()))
	}
	d.classes = classes
	d.Reqs = d.Reqs[:0]
	for i := 0; i < nReqs; i++ {
		r := Req{Client: dec.Uvarint(), Seq: dec.Uvarint()}
		if ci := dec.Uvarint(); ci > 0 {
			if ci > uint64(len(classes)) {
				return wire.ErrCorrupt
			}
			r.Class = classes[ci-1]
		}
		r.Body = dec.BytesVal()
		if dec.Err() != nil {
			return dec.Err()
		}
		d.Reqs = append(d.Reqs, r)
	}
	nMarks := dec.Count(minMarkBytes)
	d.Marks = d.Marks[:0]
	for i := 0; i < nMarks; i++ {
		d.Marks = append(d.Marks, Mark{ID: dec.Uvarint(), Cut: decodeCut(dec, nil)})
	}
	return dec.Err()
}
