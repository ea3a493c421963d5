package sched

import (
	"sync/atomic"

	"rex/internal/env"
	"rex/internal/trace"
)

// Recorder accumulates the primary's trace growth between proposals.
// Workers append to per-thread buffers under per-thread locks (the paper's
// asynchronous logging, §3.2); the proposal pump drains everything new with
// Collect. Because Collect snapshots the threads without a global barrier,
// a collected delta may be an inconsistent cut — consumers use the last
// consistent cut as its meaning.
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

// Collect drains everything recorded since the last Collect into a delta
// based at the current collection frontier. It snapshots thread buffers
// one at a time — deliberately without a global barrier — so the delta may
// be an inconsistent cut. Thread buffers are drained before the request
// table so that every collected req-begin's payload is present (requests
// are added before dispatch). The returned delta may be empty (check
// Delta.Empty); callers that only propose on growth skip empty deltas.
// Collect must be called from a single collector task.
func (r *Recorder) Collect() *trace.Delta {
	// Re-arm the wake-up hook BEFORE draining: an append that lands while
	// we drain may notify spuriously (harmless — the pump re-collects) but
	// can never be lost.
	r.armed.Store(true)
	d := &trace.Delta{
		Base:    r.collected.Clone(),
		Threads: make([]trace.ThreadLog, len(r.threads)),
	}
	for t, b := range r.threads {
		b.mu.Lock()
		n := len(b.log.Events)
		if n > 0 {
			d.Threads[t] = trace.ThreadLog{
				Events: append([]trace.Event(nil), b.log.Events...),
				Edges:  append([]trace.EventID(nil), b.log.Edges...),
				InEnd:  append([]int32(nil), b.log.InEnd...),
			}
			b.log.Reset()
			b.base += int32(n)
		}
		b.mu.Unlock()
		r.collected[t] += int32(n)
	}
	r.reqMu.Lock()
	d.ReqBase = r.reqBase
	if len(r.reqs) > 0 {
		d.Reqs = append([]trace.Req(nil), r.reqs...)
		r.reqBase += uint64(len(r.reqs))
		r.reqs = r.reqs[:0]
	}
	if len(r.marks) > 0 {
		d.Marks = append([]trace.Mark(nil), r.marks...)
		r.marks = r.marks[:0]
	}
	r.reqMu.Unlock()
	return d
}

// Collected returns the collection frontier (clocks already drained).
func (r *Recorder) Collected() trace.Cut { return r.collected.Clone() }
