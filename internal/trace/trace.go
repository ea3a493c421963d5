// Package trace defines Rex's partially ordered execution traces: the
// synchronization events and causal edges a primary records during the
// execute stage, the unit replicas agree on during the agree stage, and the
// script secondaries follow during the follow stage.
//
// A trace holds, per logical thread, an append-only event log. An event is
// identified by (thread, clock) where the clock is the 1-based index of the
// event in its thread's log. Causal edges are stored with their destination
// event. The trace also carries the request payload table (the committed
// trace is the replicated log: it contains both client requests and the
// synchronization events — §6.3) and checkpoint marks (§3.3).
package trace

import (
	"errors"
	"fmt"
	"math"
)

// ErrCutBeyondTrace reports that a cut references events outside the
// trace's available window — beyond the current frontier or inside the
// garbage-collected prefix. It marks recoverable desynchronization (the
// local trace no longer holds what the cut describes): replicas resolve
// it by re-syncing from a checkpoint (§3.3, §5.2) rather than crashing.
var ErrCutBeyondTrace = errors.New("trace: cut beyond available events")

// EventID identifies a synchronization event: the logical thread it occurred
// on and its 1-based per-thread logical clock.
type EventID struct {
	Thread int32
	Clock  int32
}

func (e EventID) String() string { return fmt.Sprintf("(%d,%d)", e.Thread, e.Clock) }

// Kind classifies a trace event.
type Kind uint8

// Event kinds. The Res and Arg fields of Event are interpreted per kind as
// documented on each constant.
const (
	KindInvalid Kind = iota
	// KindReqBegin marks a worker starting a request. Res = index of the
	// request in the trace's request table.
	KindReqBegin
	// KindReqEnd marks request completion. Res = request-table index,
	// Arg = FNV-64a hash of the response (for result checking, §5.1).
	KindReqEnd
	// KindLockAcq is a successful mutex acquisition. Res = resource id,
	// Arg = resource version (for version checking, §5.1).
	KindLockAcq
	// KindLockRel is a mutex release. Res = resource id, Arg = version.
	KindLockRel
	// KindTryAcq is a successful TryLock. Res/Arg as KindLockAcq.
	KindTryAcq
	// KindTryFail is a failed TryLock (Fig. 4). Res = resource id,
	// Arg = version observed.
	KindTryFail
	// KindRLockAcq / KindRLockRel are reader acquisitions/releases of a
	// readers–writer lock. Res = resource id, Arg = version.
	KindRLockAcq
	KindRLockRel
	// KindWLockAcq / KindWLockRel are writer acquisitions/releases.
	KindWLockAcq
	KindWLockRel
	// KindSemAcq / KindSemRel are semaphore acquire/release. Res = resource
	// id, Arg = version.
	KindSemAcq
	KindSemRel
	// KindCondWaitBegin marks entry to Cond.Wait: it releases the associated
	// lock (acts as the release event in the lock's causal chain).
	// Res = lock resource id, Arg = version.
	KindCondWaitBegin
	// KindCondWake marks return from Cond.Wait: it reacquires the associated
	// lock (acts as the acquire event in the lock's chain) and carries an
	// edge from the signal/broadcast event that enabled it.
	// Res = lock resource id, Arg = version.
	KindCondWake
	// KindCondSignal / KindCondBroadcast are Signal/Broadcast events.
	// Res = condition-variable resource id, Arg = version.
	KindCondSignal
	KindCondBroadcast
	// KindValue records the result of a nondeterministic function
	// (Ctx.Now, Ctx.Rand, ...). Res = a small tag, Arg = the value.
	KindValue
	// KindTimerFire marks a background timer callback starting.
	// Res = timer id, Arg = firing sequence number.
	KindTimerFire
	kindMax
)

var kindNames = [...]string{
	KindInvalid:       "invalid",
	KindReqBegin:      "req-begin",
	KindReqEnd:        "req-end",
	KindLockAcq:       "lock-acq",
	KindLockRel:       "lock-rel",
	KindTryAcq:        "try-acq",
	KindTryFail:       "try-fail",
	KindRLockAcq:      "rlock-acq",
	KindRLockRel:      "rlock-rel",
	KindWLockAcq:      "wlock-acq",
	KindWLockRel:      "wlock-rel",
	KindSemAcq:        "sem-acq",
	KindSemRel:        "sem-rel",
	KindCondWaitBegin: "cond-waitbegin",
	KindCondWake:      "cond-wake",
	KindCondSignal:    "cond-signal",
	KindCondBroadcast: "cond-broadcast",
	KindValue:         "value",
	KindTimerFire:     "timer-fire",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one synchronization event. Its identity (thread, clock) is
// implicit in its position within a thread log.
type Event struct {
	Kind Kind
	Res  uint32
	Arg  uint64
}

// Req is a client request carried in the trace. Class is the request's
// conflict class as assigned at admission (0 = the catch-all class):
// requests in distinct non-zero classes provably touch disjoint state, so
// the recorder elides lock events between them and replay reconstructs
// their schedule from the class id alone (class → thread assignment is
// deterministic, and intra-class order is thread order).
type Req struct {
	Client uint64
	Seq    uint64
	Class  uint32
	Body   []byte
}

// Cut is a per-thread vector of clocks; thread t's events with clock ≤
// Cut[t] are inside the cut.
type Cut []int32

// Clone returns an independent copy of c.
func (c Cut) Clone() Cut {
	o := make(Cut, len(c))
	copy(o, c)
	return o
}

// Covers reports whether event id is inside the cut.
func (c Cut) Covers(id EventID) bool {
	return int(id.Thread) < len(c) && c[id.Thread] >= id.Clock
}

// AtLeast reports whether c includes o pointwise. Cuts of different
// lengths are normalized: a thread missing from either side counts as
// clock 0, so extra threads in o are covered only if their entries are
// zero.
func (c Cut) AtLeast(o Cut) bool {
	for i := range o {
		var ci int32
		if i < len(c) {
			ci = c[i]
		}
		if ci < o[i] {
			return false
		}
	}
	return true
}

// Norm returns c without trailing zero entries. Cuts recorded under
// different thread counts (a token minted before a rebuild, a trace grown
// after a reconfiguration) normalize to the same value when they describe
// the same frontier, making length a non-issue in AtLeast/Equal.
func (c Cut) Norm() Cut {
	n := len(c)
	for n > 0 && c[n-1] == 0 {
		n--
	}
	return c[:n]
}

// Equal reports whether the two cuts are pointwise equal (missing entries
// count as zero).
func (c Cut) Equal(o Cut) bool {
	return c.AtLeast(o) && o.AtLeast(c)
}

// Mark is a checkpoint mark embedded in the trace: when replay reaches Cut,
// the designated secondary snapshots the application (§3.3).
type Mark struct {
	ID  uint64
	Cut Cut
}

// Trace is a partially ordered execution trace over a fixed set of logical
// threads, stored in chunks (store.go). Requests with global index below
// the table's collected base were garbage collected; any still in flight at
// the collection cut live in the stash, populated from a checkpoint's
// live-request list.
type Trace struct {
	threads []threadLog
	reqs    reqTable
	stash   map[uint64]Req
	Marks   []Mark
	ended   reqSet // endedIn's result, reused
}

// New returns an empty trace over n logical threads.
func New(n int) *Trace {
	return &Trace{threads: make([]threadLog, n)}
}

// NewAt returns an empty trace whose frontier is already at cut with
// reqBase requests considered present-but-collected. A replica restoring
// from a checkpoint uses it as the base to apply post-checkpoint deltas
// onto; the region before the cut is never replayed (the replayer starts
// at or beyond it).
func NewAt(n int, cut Cut, reqBase uint64) *Trace {
	tr := New(n)
	for t := 0; t < n && t < len(cut); t++ {
		l := &tr.threads[t]
		l.base, l.start, l.end = cut[t], cut[t], cut[t]
	}
	tr.reqs.base, tr.reqs.start, tr.reqs.end = reqBase, reqBase, reqBase
	return tr
}

// StashReq registers a request that predates the request table's collected
// base (a checkpoint's live request): it is still replayable via Req().
func (tr *Trace) StashReq(idx uint64, r Req) {
	if tr.stash == nil {
		tr.stash = make(map[uint64]Req)
	}
	tr.stash[idx] = r
}

// Req returns the request with the given global index.
func (tr *Trace) Req(idx uint64) (Req, bool) {
	if idx >= tr.reqs.base {
		if idx < tr.reqs.end {
			return tr.reqs.get(idx), true
		}
		return Req{}, false
	}
	r, ok := tr.stash[idx]
	return r, ok
}

// ReqEnd returns one past the global index of the last request in the
// table: the request base the next delta must carry.
func (tr *Trace) ReqEnd() uint64 { return tr.reqs.end }

// IndexedReq pairs a request with its global index in the trace's table.
type IndexedReq struct {
	Idx uint64
	Req Req
}

// LiveReqs returns, in index order, the requests whose completion (req-end)
// is not inside cut: the in-flight and not-yet-started requests a
// checkpoint at cut must carry so a replica restored from it can replay
// them (§3.3). Requests in the garbage-collected prefix were either
// completed (dropped) or carried forward in the stash.
func (tr *Trace) LiveReqs(cut Cut) []IndexedReq {
	done := tr.endedIn(cut)
	var live []IndexedReq
	for idx, req := range tr.stash {
		if !done.has(idx) {
			live = append(live, IndexedReq{Idx: idx, Req: req})
		}
	}
	for idx := tr.reqs.base; idx < tr.reqs.end; idx++ {
		if !done.has(idx) {
			live = append(live, IndexedReq{Idx: idx, Req: tr.reqs.get(idx)})
		}
	}
	// Insertion sort by index (live sets are small); keeps snapshot bytes
	// deterministic despite map iteration over the stash.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j-1].Idx > live[j].Idx; j-- {
			live[j-1], live[j] = live[j], live[j-1]
		}
	}
	return live
}

// LiveLowWater returns the smallest request index that may still be
// needed given that all requests completed (req-end) inside cut are done:
// the lowest live request, or the end of the table when everything
// completed.
func (tr *Trace) LiveLowWater(cut Cut) uint64 {
	done := tr.endedIn(cut)
	low := tr.reqs.end
	for idx := range tr.stash {
		if !done.has(idx) && idx < low {
			low = idx
		}
	}
	for idx := tr.reqs.base; idx < low; idx++ {
		if !done.has(idx) {
			low = idx
		}
	}
	return low
}

// reqSet is a set of request indexes in [lo, lo+64·len(bits)), one bit
// each: the indexes a trace still holds are dense.
type reqSet struct {
	lo   uint64
	bits []uint64
}

func (s *reqSet) has(idx uint64) bool {
	i := idx - s.lo
	return idx >= s.lo && i>>6 < uint64(len(s.bits)) && s.bits[i>>6]&(1<<(i&63)) != 0
}

// endedIn returns the held request indexes (the stash's and the table's)
// whose req-end event is inside cut. The set is the trace's scratch,
// valid until the next call.
func (tr *Trace) endedIn(cut Cut) *reqSet {
	s := &tr.ended
	s.lo = tr.reqs.base
	for idx := range tr.stash {
		s.lo = min(s.lo, idx)
	}
	n := int((tr.reqs.end - s.lo + 63) >> 6)
	if cap(s.bits) < n {
		s.bits = make([]uint64, n)
	}
	s.bits = s.bits[:n]
	clear(s.bits)
	for t := range tr.threads {
		if t < len(cut) {
			tr.threads[t].eachReq(cut[t], func(kind Kind, res uint32) {
				if i := uint64(res) - s.lo; kind == KindReqEnd && uint64(res) >= s.lo && i>>6 < uint64(n) {
					s.bits[i>>6] |= 1 << (i & 63)
				}
			})
		}
	}
	return s
}

// OpenRequests counts the requests whose req-begin is in the trace and
// whose req-end is not: handlers that were running when the trace ends.
// A checkpoint pause happens at request boundaries, so a collected prefix
// never hides an unmatched req-begin.
func (tr *Trace) OpenRequests() int {
	open := make(map[uint32]bool)
	for t := range tr.threads {
		tr.threads[t].eachReq(math.MaxInt32, func(kind Kind, res uint32) {
			if kind == KindReqBegin {
				open[res] = true
			} else {
				delete(open, res)
			}
		})
	}
	return len(open)
}

// PruneTo collects thread t's events at or below clock c in whole chunks,
// keeping what LiveReqs, LiveLowWater and OpenRequests read of them, so a
// replica that has executed them need not hold them until the next
// checkpoint. Callers must not read those events again (Event, In).
func (tr *Trace) PruneTo(t int, c int32) {
	tr.threads[t].pruneTo(c)
}

// Forget garbage-collects the trace prefix covered by a checkpoint: all
// events with clocks inside cut and all requests below keepReqsFrom
// (typically the checkpoint's lowest live request index). Callers must
// ensure nothing will read inside the forgotten region again — on a
// secondary, that replay has executed past cut.
func (tr *Trace) Forget(cut Cut, keepReqsFrom uint64) {
	for t := range tr.threads {
		if t < len(cut) {
			tr.threads[t].forgetTo(cut[t])
		}
	}
	tr.reqs.forgetTo(keepReqsFrom)
	for idx := range tr.stash {
		if idx < keepReqsFrom {
			delete(tr.stash, idx)
		}
	}
	kept := tr.Marks[:0]
	for _, m := range tr.Marks {
		if !cut.AtLeast(m.Cut) || m.Cut.Equal(cut) {
			kept = append(kept, m)
		}
	}
	tr.Marks = kept
}

// NumThreads returns the number of logical threads.
func (tr *Trace) NumThreads() int { return len(tr.threads) }

// Cut returns the trace's current frontier (all events).
func (tr *Trace) Cut() Cut {
	return tr.frontierInto(nil)
}

// frontierInto writes the trace's frontier into dst's storage, or into a
// fresh cut when dst is too short.
func (tr *Trace) frontierInto(dst Cut) Cut {
	c := dst[:0]
	if c == nil || cap(c) < len(tr.threads) {
		c = make(Cut, 0, len(tr.threads))
	}
	for i := range tr.threads {
		c = append(c, tr.threads[i].end)
	}
	return c
}

// atFrontier reports whether c equals the trace's frontier, counting
// missing entries as zero like Cut.Equal, without allocating.
func (tr *Trace) atFrontier(c Cut) bool {
	for t := range tr.threads {
		var want int32
		if t < len(c) {
			want = c[t]
		}
		if tr.threads[t].end != want {
			return false
		}
	}
	for t := len(tr.threads); t < len(c); t++ {
		if c[t] != 0 {
			return false
		}
	}
	return true
}

// Event returns the event with the given id, which must be retained:
// neither garbage collected nor beyond the frontier.
func (tr *Trace) Event(id EventID) Event {
	l := &tr.threads[id.Thread]
	l.checkLive(id.Thread, id.Clock)
	c, i := l.slot(id.Clock)
	return c.events[i]
}

// In returns the incoming edge sources of the event with the given id,
// which must be retained. The slice aliases the trace's storage; it stays
// unchanged for as long as the event is not truncated away.
func (tr *Trace) In(id EventID) []EventID {
	l := &tr.threads[id.Thread]
	l.checkLive(id.Thread, id.Clock)
	c, i := l.slot(id.Clock)
	return c.in(i)
}

// EachEvent calls fn on thread t's retained events with clocks in
// (from, to], clamped to what the trace retains, in clock order.
func (tr *Trace) EachEvent(t int, from, to int32, fn func(Event)) {
	tr.threads[t].each(from, to, fn)
}

// EventCount returns the number of retained events.
func (tr *Trace) EventCount() int {
	n := 0
	for i := range tr.threads {
		n += int(tr.threads[i].end - tr.threads[i].base)
	}
	return n
}

// EdgeCount returns the number of causal edges into retained events.
func (tr *Trace) EdgeCount() int {
	n := 0
	for t := range tr.threads {
		l := &tr.threads[t]
		for c := l.base + 1; c <= l.end; c++ {
			ch, i := l.slot(c)
			n += len(ch.in(i))
		}
	}
	return n
}

// ConsistentCut computes the trace's last consistent cut: the maximal cut
// such that for every causal edge whose destination is inside the cut, the
// source is inside the cut too (§3.2). base must be a known-consistent cut
// (use a zero cut for the whole trace); only events beyond base are
// examined, which makes incremental maintenance cheap.
//
// If base lies beyond the trace's frontier — the caller's notion of what is
// committed has desynchronized from the local trace, e.g. across rapid
// promote/demote cycles — ConsistentCut returns ErrCutBeyondTrace so the
// caller can re-sync from a checkpoint instead of crashing.
func (tr *Trace) ConsistentCut(base Cut) (Cut, error) {
	return tr.ConsistentCutInto(nil, base)
}

// ConsistentCutInto is ConsistentCut writing the cut into dst's storage,
// which it grows only when dst is too short: a caller that keeps two cuts
// and swaps them advances its last consistent cut without allocating. dst
// must not share storage with base.
func (tr *Trace) ConsistentCutInto(dst, base Cut) (Cut, error) {
	cut := tr.frontierInto(dst)
	for i := range base {
		if i < len(cut) && cut[i] < base[i] {
			return nil, fmt.Errorf("%w: base cut %v beyond trace frontier %v", ErrCutBeyondTrace, base, cut)
		}
	}
	for {
		changed := false
		for t := range tr.threads {
			l := &tr.threads[t]
			lo := l.base
			if t < len(base) && base[t] > lo {
				lo = base[t]
			}
			limit := cut[t]
			for c := lo + 1; c <= limit; c++ {
				violated := false
				ch, i := l.slot(c)
				for _, src := range ch.in(i) {
					if !cut.Covers(src) {
						violated = true
						break
					}
				}
				if violated {
					cut[t] = c - 1
					changed = true
					break
				}
			}
		}
		if !changed {
			return cut, nil
		}
	}
}

// IsConsistent reports whether cut is a consistent cut of the trace.
// Garbage-collected prefixes are assumed consistent (they were covered by
// a checkpoint at a consistent cut).
func (tr *Trace) IsConsistent(cut Cut) bool {
	for t := range tr.threads {
		l := &tr.threads[t]
		limit := int32(0)
		if t < len(cut) {
			limit = cut[t]
		}
		if limit > l.end {
			return false
		}
		for c := l.base + 1; c <= limit; c++ {
			ch, i := l.slot(c)
			for _, src := range ch.in(i) {
				if !cut.Covers(src) {
					return false
				}
			}
		}
	}
	return true
}

// TruncateTo discards all events beyond cut, along with marks beyond it.
// Used when a new primary rebases the trace to the last consistent cut
// after a leader change (§3.2).
//
// The request table is deliberately left untouched: its length is part of
// the replicated state (delta base checks compare it), and replicas that
// restored from a checkpoint hold placeholder events from which references
// cannot be recomputed. A request orphaned by the truncation (admitted by
// the old primary but never begun) simply stays in the table unexecuted;
// its client retries at the new primary.
//
// A cut inside the garbage-collected prefix or beyond the frontier means
// the local trace no longer holds the region the cut describes; TruncateTo
// returns ErrCutBeyondTrace (leaving the trace untouched) so the caller can
// re-sync from a checkpoint instead of crashing.
func (tr *Trace) TruncateTo(cut Cut) error {
	clockAt := func(t int) int32 {
		if t < len(cut) {
			return cut[t]
		}
		return 0
	}
	for t := range tr.threads {
		l := &tr.threads[t]
		if c := clockAt(t); c < l.base {
			return fmt.Errorf("%w: truncation cut %v inside the collected prefix (thread %d base %d)", ErrCutBeyondTrace, cut, t, l.base)
		} else if c > l.end {
			return fmt.Errorf("%w: truncation cut %v beyond trace frontier %v", ErrCutBeyondTrace, cut, tr.Cut())
		}
	}
	for t := range tr.threads {
		tr.threads[t].truncateTo(clockAt(t))
	}
	kept := tr.Marks[:0]
	for _, m := range tr.Marks {
		if cut.AtLeast(m.Cut) {
			kept = append(kept, m)
		}
	}
	tr.Marks = kept
	return nil
}

// Stats summarizes a trace for the §4.2/§6.3 measurements.
type Stats struct {
	Events       int
	Edges        int
	Reqs         int
	EncodedBytes int
}

// Stats computes summary statistics; EncodedBytes is filled by callers that
// encode the trace.
func (tr *Trace) Stats() Stats {
	return Stats{Events: tr.EventCount(), Edges: tr.EdgeCount(), Reqs: int(tr.reqs.end - tr.reqs.base)}
}
