// Package tracetest generates committed trace deltas for the tests that
// pin what folding and replaying them allocates. Only tests import it.
package tracetest

import (
	"bytes"

	"rex/internal/trace"
)

// PutDeltas encodes n consecutive committed deltas continuing tr's
// frontier, each shaped like an lsmkv put on a realbench primary: one
// request with a 64-byte body and 22 events on one of tr's threads in
// turn (req-begin, ten lock acquire/release pairs, req-end), the first
// edged acquires carrying an edge from the previous put's thread (two of
// them make about 0.09 edges per event). It also returns the number of
// edges the deltas carry.
func PutDeltas(tr *trace.Trace, n, edged int) (vals [][]byte, edges int) {
	threads := tr.NumThreads()
	base, reqBase := tr.Cut(), tr.ReqEnd()
	body := bytes.Repeat([]byte("v"), 64)
	vals = make([][]byte, n)
	for i := range vals {
		d := &trace.Delta{Base: base.Clone(), ReqBase: reqBase, Threads: make([]trace.ThreadLog, threads)}
		t := int(reqBase % uint64(threads))
		prev := (t + threads - 1) % threads
		l := &d.Threads[t]
		l.Append(trace.Event{Kind: trace.KindReqBegin, Res: uint32(reqBase)}, nil)
		for k := 0; k < 10; k++ {
			var in []trace.EventID
			if k < edged && base[prev] > 0 {
				in = []trace.EventID{{Thread: int32(prev), Clock: base[prev]}}
			}
			l.Append(trace.Event{Kind: trace.KindLockAcq, Res: uint32(k), Arg: reqBase*2 + uint64(k)}, in)
			l.Append(trace.Event{Kind: trace.KindLockRel, Res: uint32(k), Arg: reqBase*2 + uint64(k) + 1}, nil)
		}
		l.Append(trace.Event{Kind: trace.KindReqEnd, Res: uint32(reqBase), Arg: reqBase * 0x9e3779b97f4a7c15}, nil)
		d.Reqs = []trace.Req{{Client: reqBase % 64, Seq: reqBase, Class: uint32(1 + reqBase%16), Body: body}}
		vals[i] = d.EncodeBytes()
		edges += d.EdgeCount()
		base[t] += int32(len(l.Events))
		reqBase++
	}
	return vals, edges
}
