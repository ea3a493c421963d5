package sched

import (
	"sync/atomic"

	"rex/internal/env"
	"rex/internal/trace"
)

// Recorder accumulates the primary's trace growth between proposals.
// Workers append to per-thread buffers under per-thread locks (the paper's
// asynchronous logging, §3.2); the proposal pump drains everything new with
// CollectInto. Because a collect snapshots the threads without a global
// barrier, a collected delta may be an inconsistent cut — consumers use
// the last consistent cut as its meaning.
type Recorder struct {
	threads []*threadBuf

	reqMu   env.Mutex
	reqs    []trace.Req
	marks   []trace.Mark
	reqBase uint64 // global index of reqs[0]
	nextReq uint64

	// Collection state (owned by the single collector).
	collected trace.Cut

	// notify, when set, fires edge-triggered when work lands for the
	// collector: at most once per Collect cycle for events (armed re-arms
	// at the top of Collect), and on every request/mark admission (those
	// want a prompt proposal). It powers the primary's demand-driven
	// propose pump; it must be cheap and non-blocking.
	notify func()
	armed  atomic.Bool
}

type threadBuf struct {
	mu   env.Mutex
	log  trace.ThreadLog
	base int32 // clock of the first buffered event minus one
}

// NewRecorder returns a recorder for n threads whose trace resumes from cut
// with the request table already holding reqBase entries.
func NewRecorder(e env.Env, n int, cut trace.Cut, reqBase uint64) *Recorder {
	r := &Recorder{
		reqMu:     e.NewMutex(),
		reqBase:   reqBase,
		nextReq:   reqBase,
		collected: make(trace.Cut, n),
	}
	for t := 0; t < n; t++ {
		base := int32(0)
		if t < len(cut) {
			base = cut[t]
		}
		r.collected[t] = base
		r.threads = append(r.threads, &threadBuf{mu: e.NewMutex(), base: base})
	}
	return r
}

// SetNotify installs fn as the collector wake-up hook and arms it. Call
// before recording begins (it is not synchronized against Append).
func (r *Recorder) SetNotify(fn func()) {
	r.notify = fn
	r.armed.Store(true)
}

// maybeNotify fires the hook once per armed cycle. The fast path (already
// fired, or no hook) is a single atomic load.
func (r *Recorder) maybeNotify() {
	if r.notify != nil && r.armed.Load() && r.armed.CompareAndSwap(true, false) {
		r.notify()
	}
}

// Append adds an event (with its incoming edges) to thread t's buffer.
func (r *Recorder) Append(t int32, ev trace.Event, in []trace.EventID) {
	b := r.threads[t]
	b.mu.Lock()
	b.log.Append(ev, in)
	b.mu.Unlock()
	r.maybeNotify()
}

// AddReq appends a request payload to the table and returns its global
// index. The caller must add the request before dispatching it to a worker
// so that a collected req-begin event always has its payload in the same or
// an earlier delta.
func (r *Recorder) AddReq(req trace.Req) uint64 {
	r.reqMu.Lock()
	idx := r.nextReq
	r.nextReq++
	r.reqs = append(r.reqs, req)
	r.reqMu.Unlock()
	r.maybeNotify()
	return idx
}

// AddMark appends a checkpoint mark. The caller must hold all workers
// paused at the mark's cut when calling this (§3.3).
func (r *Recorder) AddMark(m trace.Mark) {
	r.reqMu.Lock()
	r.marks = append(r.marks, m)
	r.reqMu.Unlock()
	r.maybeNotify()
}

// Collect drains everything recorded since the last Collect into a fresh
// delta; see CollectInto.
func (r *Recorder) Collect() *trace.Delta {
	d := new(trace.Delta)
	r.CollectInto(d)
	return d
}

// CollectInto drains everything recorded since the last collect into d,
// based at the current collection frontier. It snapshots thread buffers
// one at a time — deliberately without a global barrier — so the delta may
// be an inconsistent cut. Thread buffers are drained before the request
// table so that every collected req-begin's payload is present (requests
// are added before dispatch). The delta may be empty (check Delta.Empty);
// callers that only propose on growth skip empty deltas.
//
// Nothing is copied: each non-empty thread log and the request and mark
// tables are swapped with d's, whose emptied storage the recorder then
// fills next. A collector that passes the same d every time, and is done
// with its previous contents, allocates nothing once the buffers have
// grown. d's request bodies are the callers' payloads; a collector that
// keeps d should clear them once it has encoded d. CollectInto must be
// called from a single collector task.
func (r *Recorder) CollectInto(d *trace.Delta) {
	// Re-arm the wake-up hook BEFORE draining: an append that lands while
	// we drain may notify spuriously (harmless — the pump re-collects) but
	// can never be lost.
	r.armed.Store(true)
	d.Rebase = nil
	d.Base = append(d.Base[:0], r.collected...)
	if cap(d.Threads) < len(r.threads) {
		d.Threads = make([]trace.ThreadLog, len(r.threads))
	}
	d.Threads = d.Threads[:len(r.threads)]
	for t, b := range r.threads {
		dl := &d.Threads[t]
		dl.Reset()
		b.mu.Lock()
		n := len(b.log.Events)
		if n > 0 {
			b.log, *dl = *dl, b.log
			b.base += int32(n)
		}
		b.mu.Unlock()
		r.collected[t] += int32(n)
	}
	r.reqMu.Lock()
	d.ReqBase = r.reqBase
	r.reqBase += uint64(len(r.reqs))
	d.Reqs, r.reqs = r.reqs, d.Reqs[:0]
	d.Marks, r.marks = r.marks, d.Marks[:0]
	r.reqMu.Unlock()
}
