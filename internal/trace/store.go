package trace

// Committed-trace storage. Each thread's events live in fixed-size chunks
// aligned to clock numbers, so appending a committed delta writes into the
// last chunk and never moves what is already stored, garbage collection
// drops whole chunks from the front, and a clock maps to its slot with a
// shift and a mask. The request table is chunked the same way.

const (
	chunkShift = 8
	chunkLen   = 1 << chunkShift // events (or requests) per chunk
	chunkMask  = chunkLen - 1
)

// chunk holds chunkLen consecutive events of one thread. The in-edge
// sources of all its events are packed into edges: those of events[i] are
// edges[inEnd[i-1]:inEnd[i]] (starting at 0 for i = 0). edges comes first
// because it is the only pointer: the garbage collector scans an object
// only up to its last pointer word.
type chunk struct {
	edges  []EventID
	events [chunkLen]Event
	inEnd  [chunkLen]int32
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
// did.
type threadLog struct {
	base   int32
	start  int32
	end    int32
	chunks []*chunk
	pruned []reqEvent
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

// newChunk allocates the next tail chunk, sizing its edge buffer to the
// edge count of the chunk before it (one edge per event for the first) so
// that a steady edge rate never regrows one.
func (l *threadLog) newChunk() *chunk {
	edgeCap := chunkLen
	if n := len(l.chunks); n > 0 {
		edgeCap = len(l.chunks[n-1].edges)
	}
	return &chunk{edges: make([]EventID, 0, edgeCap)}
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
	clear(l.chunks[:drop])
	l.chunks = l.chunks[drop:]
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
	clear(l.chunks[:drop])
	l.chunks = l.chunks[drop:]
	l.start += int32(drop) << chunkShift
	l.base = max(l.base, l.start)
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
	clear(l.chunks[keep:])
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
// base were garbage collected.
type reqTable struct {
	base   uint64
	start  uint64
	end    uint64
	chunks []*[chunkLen]Req
}

func (t *reqTable) push(r Req) {
	n := t.end - t.start
	if n == uint64(len(t.chunks))<<chunkShift {
		t.chunks = append(t.chunks, new([chunkLen]Req))
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
	clear(t.chunks[:drop])
	t.chunks = t.chunks[drop:]
	t.start += drop << chunkShift
	if len(t.chunks) > 0 {
		clear(t.chunks[0][:idx-t.start])
	}
}
