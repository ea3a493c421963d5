package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"rex/internal/storage"
	"rex/internal/transport"
)

// spanKind names what a span timed. Client spans are timed around the
// benchmark's own server.Client calls; the others around calls the program
// makes into the storage.Log, storage.SnapshotStore and transport.Endpoint
// it was handed, so they have no parent.
type spanKind uint8

const (
	spanWrite spanKind = iota
	spanLinRead
	spanSessionRead
	spanAppend
	spanRewrite
	spanRecords
	spanSnapSave
	spanSnapLoad
	spanSend
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.write", "client.lin_read", "client.session_read",
	"storage.append", "storage.rewrite", "storage.records",
	"storage.snapshot_save", "storage.snapshot_load", "transport.send",
}

// span is one timed call. actor is the replica id for layer spans and the
// client id for client spans; arg is the op id (client spans), records
// (appends and rewrites) or bytes (sends and snapshots).
type span struct {
	start, end int64 // nanoseconds since the tracer's base
	arg        int64
	kind       spanKind
	actor      int8
}

// tracer keeps every span in memory until the run writes them out.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) record(kind spanKind, actor int, start time.Time, arg int64) {
	s := span{
		start: start.Sub(t.base).Nanoseconds(),
		end:   time.Since(t.base).Nanoseconds(),
		arg:   arg,
		kind:  kind,
		actor: int8(actor),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// window returns the spans that started in [from, to).
func (t *tracer) window(from, to time.Time) []span {
	lo, hi := from.Sub(t.base).Nanoseconds(), to.Sub(t.base).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.start >= lo && s.start < hi {
			out = append(out, s)
		}
	}
	return out
}

// writeCSV writes every span as name,actor,start_ns,end_ns,arg.
func (t *tracer) writeCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,actor,start_ns,end_ns,arg")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", spanNames[s.kind], s.actor, s.start, s.end, s.arg)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// byKind groups spans by kind.
func byKind(spans []span) [][]span {
	out := make([][]span, numSpanKinds)
	for _, sp := range spans {
		out[sp.kind] = append(out[sp.kind], sp)
	}
	return out
}

// unionNs is the total time covered by at least one of the spans.
func unionNs(spans []span) int64 {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	curStart, curEnd := s[0].start, s[0].end
	for _, x := range s[1:] {
		if x.start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = x.start, x.end
		} else if x.end > curEnd {
			curEnd = x.end
		}
	}
	return total + curEnd - curStart
}

type tracedEndpoint struct {
	transport.Endpoint
	tr      *tracer
	replica int
}

func (e *tracedEndpoint) Send(to int, payload []byte) {
	start := time.Now()
	e.Endpoint.Send(to, payload)
	e.tr.record(spanSend, e.replica, start, int64(len(payload)))
}

// tracedLog times the log calls the consensus engine makes; it appends
// only through AppendBatch, so Append passes through untimed.
type tracedLog struct {
	storage.Log
	tr      *tracer
	replica int
}

func (l *tracedLog) AppendBatch(recs [][]byte) error {
	start := time.Now()
	err := l.Log.AppendBatch(recs)
	l.tr.record(spanAppend, l.replica, start, int64(len(recs)))
	return err
}

func (l *tracedLog) Records() ([][]byte, error) {
	start := time.Now()
	recs, err := l.Log.Records()
	l.tr.record(spanRecords, l.replica, start, int64(len(recs)))
	return recs, err
}

func (l *tracedLog) Rewrite(recs [][]byte) error {
	start := time.Now()
	err := l.Log.Rewrite(recs)
	l.tr.record(spanRewrite, l.replica, start, int64(len(recs)))
	return err
}

type tracedSnapshots struct {
	storage.SnapshotStore
	tr      *tracer
	replica int
}

func (s *tracedSnapshots) Save(id uint64, data []byte) error {
	start := time.Now()
	err := s.SnapshotStore.Save(id, data)
	s.tr.record(spanSnapSave, s.replica, start, int64(len(data)))
	return err
}

func (s *tracedSnapshots) Load() (uint64, []byte, bool, error) {
	start := time.Now()
	id, data, ok, err := s.SnapshotStore.Load()
	s.tr.record(spanSnapLoad, s.replica, start, int64(len(data)))
	return id, data, ok, err
}
