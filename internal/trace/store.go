package trace

// Committed-trace storage. Each thread's events live in fixed-size chunks
// aligned to clock numbers, so appending a committed delta writes into the
// last chunk and never moves what is already stored, garbage collection
// drops whole chunks from the front, and a clock maps to its slot with a
// shift and a mask. The request table is chunked the same way.
//
// A dropped chunk goes to its log's spare list, and the next new chunk is
// taken from there, so a steady commit stream reuses the same few chunks.
// Only the fixed arrays are reused: a reused event chunk gets a fresh edge
// buffer, because a replay worker may still hold an In slice of an event
// that was pruned or forgotten, and that slice must never change.

const (
	chunkShift = 8
	chunkLen   = 1 << chunkShift // events (or requests) per chunk
	chunkMask  = chunkLen - 1

	// maxSpare bounds each spare list. A log in steady state drops one
	// chunk for every chunk it fills, but not in step with its fills:
	// with one spare a third of a put run's new chunks were fresh
	// allocations, with two about 2 %.
	maxSpare = 2
)

// chunk holds chunkLen consecutive events of one thread. The in-edge
// sources of all its events are packed into edges: those of events[i] are
// edges[inEnd[i-1]:inEnd[i]] (starting at 0 for i = 0). edges comes first
// because it is the only pointer: the garbage collector scans an object
// only up to its last pointer word. A spare chunk has no edges, only
// their count in spareEdges.
type chunk struct {
	edges      []EventID
	events     [chunkLen]Event
	inEnd      [chunkLen]int32
	spareEdges int
}

// in returns the in-edge sources of events[i]. The slice is capped at its
// length, so a caller appending to it cannot write into a neighbour's
// edges.
func (c *chunk) in(i int) []EventID {
	var lo int32
	if i > 0 {
		lo = c.inEnd[i-1]
	}
	hi := c.inEnd[i]
	return c.edges[lo:hi:hi]
}

// threadLog is one thread's committed event log. Event clock c lives in
// chunk (c-1-start)>>chunkShift at slot (c-1-start)&chunkMask; chunks
// holds exactly the chunks covering clocks start+1..end. Events with clocks
// at or below base were garbage collected, though up to one chunk's worth
// of them may still sit in chunks[0]. pruned keeps, oldest first, the
// request boundaries of the events pruneTo collected before a checkpoint
// did. spare holds dropped chunks for reuse, without their edge buffers.
type threadLog struct {
	base   int32
	start  int32
	end    int32
	chunks []*chunk
	pruned []reqEvent
	spare  []*chunk
}

// reqEvent is a req-begin or req-end event of a pruned chunk: all that
// request bookkeeping (LiveReqs, LiveLowWater, OpenRequests) reads of it.
type reqEvent struct {
	clock int32
	kind  Kind
	res   uint32
}

// slot locates clock c, which must lie in (start, end].
func (l *threadLog) slot(c int32) (*chunk, int) {
	off := int(c - 1 - l.start)
	return l.chunks[off>>chunkShift], off & chunkMask
}

// checkLive panics unless clock c is retained: reading a collected or
// not-yet-appended event is a bug in the caller, never an input error.
func (l *threadLog) checkLive(t, c int32) {
	if c <= l.base || c > l.end {
		panic(EventID{Thread: t, Clock: c}.String() + " outside the retained trace")
	}
}

// push appends an event, copying its in-edge sources into the tail chunk.
func (l *threadLog) push(ev Event, in []EventID) {
	n := int(l.end - l.start)
	if n == len(l.chunks)<<chunkShift {
		l.chunks = append(l.chunks, l.newChunk())
	}
	c, i := l.chunks[n>>chunkShift], n&chunkMask
	c.events[i] = ev
	c.edges = append(c.edges, in...)
	c.inEnd[i] = int32(len(c.edges))
	l.end++
}

// newChunk returns the next tail chunk, a spare one when there is one,
// with a fresh edge buffer sized to the edge count of the chunk before it
// (of the spare itself when no chunk is left, one edge per event for a
// log's first chunk) so that a steady edge rate never regrows one.
func (l *threadLog) newChunk() *chunk {
	c := takeSpare(&l.spare)
	if c == nil {
		c = &chunk{spareEdges: chunkLen}
	}
	edgeCap := c.spareEdges
	if n := len(l.chunks); n > 0 {
		edgeCap = len(l.chunks[n-1].edges)
	}
	c.edges = make([]EventID, 0, edgeCap)
	return c
}

// release moves dropped chunks to the spare list. A spare chunk lets go
// of its edge buffer, which stays intact for whoever still holds an In
// slice of it.
func (l *threadLog) release(dropped []*chunk) {
	keepSpares(&l.spare, dropped, func(c *chunk) { c.spareEdges, c.edges = len(c.edges), nil })
}

// keepSpares moves dropped chunks to spare, reset, as far as it has
// room, and clears their slots.
func keepSpares[T any](spare *[]*T, dropped []*T, reset func(*T)) {
	for _, c := range dropped {
		if len(*spare) == maxSpare {
			break
		}
		reset(c)
		*spare = append(*spare, c)
	}
	clear(dropped)
}

// takeSpare removes and returns the last spare chunk, nil when there is
// none.
func takeSpare[T any](spare *[]*T) *T {
	n := len(*spare)
	if n == 0 {
		return nil
	}
	c := (*spare)[n-1]
	(*spare)[n-1] = nil
	*spare = (*spare)[:n-1]
	return c
}

// forgetTo garbage-collects events with clock ≤ c (clamped to what is
// present), releasing every chunk that lies wholly inside the collected
// prefix, and the request boundaries pruned from it.
func (l *threadLog) forgetTo(c int32) {
	n := 0
	for n < len(l.pruned) && l.pruned[n].clock <= c {
		n++
	}
	if n > 0 {
		l.pruned = append(l.pruned[:0], l.pruned[n:]...)
	}
	if c <= l.base {
		return
	}
	if c > l.end {
		c = l.end
	}
	l.base = c
	drop := int(c-l.start) >> chunkShift
	if drop == 0 {
		return
	}
	l.release(l.chunks[:drop])
	l.chunks = dropFront(l.chunks, drop)
	l.start += int32(drop) << chunkShift
}

// pruneTo collects every chunk that lies wholly at or below clock c,
// keeping only its request boundaries in pruned. Unlike forgetTo it loses
// nothing that request bookkeeping reads, so it may run ahead of a
// checkpoint.
func (l *threadLog) pruneTo(c int32) {
	if c > l.end {
		c = l.end
	}
	drop := int(c-l.start) >> chunkShift
	if drop <= 0 {
		return
	}
	for k, ch := range l.chunks[:drop] {
		first := l.start + int32(k)<<chunkShift + 1
		for i := range ch.events {
			ev := &ch.events[i]
			if clock := first + int32(i); clock > l.base && (ev.Kind == KindReqBegin || ev.Kind == KindReqEnd) {
				l.pruned = append(l.pruned, reqEvent{clock: clock, kind: ev.Kind, res: ev.Res})
			}
		}
	}
	l.release(l.chunks[:drop])
	l.chunks = dropFront(l.chunks, drop)
	l.start += int32(drop) << chunkShift
	l.base = max(l.base, l.start)
}

// dropFront removes s's first drop entries, moving the rest down so that
// appending to s reuses its array instead of sliding off its end.
func dropFront[T any](s []T, drop int) []T {
	n := copy(s, s[drop:])
	clear(s[n:])
	return s[:n]
}

// eachReq calls fn on the request boundaries with clocks at or below hi,
// pruned and retained, in clock order.
func (l *threadLog) eachReq(hi int32, fn func(kind Kind, res uint32)) {
	for _, p := range l.pruned {
		if p.clock > hi {
			return
		}
		fn(p.kind, p.res)
	}
	l.each(l.base, hi, func(ev Event) {
		if ev.Kind == KindReqBegin || ev.Kind == KindReqEnd {
			fn(ev.Kind, ev.Res)
		}
	})
}

// truncateTo drops events with clock > c; base ≤ c ≤ end. The tail
// chunk's edges are cut back too, so later pushes overwrite the edges of
// discarded events only.
func (l *threadLog) truncateTo(c int32) {
	n := int(c - l.start)
	keep := (n + chunkMask) >> chunkShift
	l.release(l.chunks[keep:])
	l.chunks = l.chunks[:keep]
	if i := n & chunkMask; i > 0 {
		tail := l.chunks[keep-1]
		tail.edges = tail.edges[:tail.inEnd[i-1]]
	}
	l.end = c
}

// each calls fn on the retained events with clocks in (lo, hi], clamped to
// what the log holds, in clock order.
func (l *threadLog) each(lo, hi int32, fn func(Event)) {
	if lo < l.base {
		lo = l.base
	}
	if hi > l.end {
		hi = l.end
	}
	for c := lo + 1; c <= hi; c++ {
		ch, i := l.slot(c)
		fn(ch.events[i])
	}
}

// reqTable is the trace's request table: request idx lives in chunk
// (idx-start)>>chunkShift at slot (idx-start)&chunkMask. Requests below
// base were garbage collected. spare holds dropped chunks, cleared, for
// reuse.
type reqTable struct {
	base   uint64
	start  uint64
	end    uint64
	chunks []*[chunkLen]Req
	spare  []*[chunkLen]Req
}

func (t *reqTable) push(r Req) {
	n := t.end - t.start
	if n == uint64(len(t.chunks))<<chunkShift {
		c := takeSpare(&t.spare)
		if c == nil {
			c = new([chunkLen]Req)
		}
		t.chunks = append(t.chunks, c)
	}
	t.chunks[n>>chunkShift][n&chunkMask] = r
	t.end++
}

// get returns request idx, which must lie in [base, end).
func (t *reqTable) get(idx uint64) Req {
	off := idx - t.start
	return t.chunks[off>>chunkShift][off&chunkMask]
}

// forgetTo garbage-collects requests below idx (clamped to the table end),
// releasing every chunk wholly below it and the bodies of the collected
// requests left in the first chunk.
func (t *reqTable) forgetTo(idx uint64) {
	if idx <= t.base {
		return
	}
	if idx > t.end {
		idx = t.end
	}
	t.base = idx
	drop := (idx - t.start) >> chunkShift
	// A spare pins no request body.
	keepSpares(&t.spare, t.chunks[:drop], func(c *[chunkLen]Req) { clear(c[:]) })
	t.chunks = dropFront(t.chunks, int(drop))
	t.start += drop << chunkShift
	if len(t.chunks) > 0 {
		clear(t.chunks[0][:idx-t.start])
	}
}
