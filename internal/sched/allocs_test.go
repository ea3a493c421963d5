//go:build !race

package sched

import (
	"testing"

	"rex/internal/env"
	"rex/internal/trace"
)

// TestCollectIntoSteadyStateAllocs pins the pump's collect: once the
// recorder's buffers and the reused scratch delta have grown, recording a
// cycle's events and requests and collecting them allocates nothing.
func TestCollectIntoSteadyStateAllocs(t *testing.T) {
	rec := NewRecorder(env.NewReal(), 4, nil, 0)
	body := []byte("put k v")
	var d trace.Delta
	cycle := func() {
		for th := int32(0); th < 4; th++ {
			idx := rec.AddReq(trace.Req{Client: 1, Seq: 1, Body: body})
			rec.Append(th, trace.Event{Kind: trace.KindReqBegin, Res: uint32(idx)}, nil)
			rec.Append(th, trace.Event{Kind: trace.KindLockAcq, Res: 2, Arg: 1}, []trace.EventID{{Thread: (th + 1) % 4, Clock: 1}})
			rec.Append(th, trace.Event{Kind: trace.KindReqEnd, Res: uint32(idx)}, nil)
		}
		rec.CollectInto(&d)
		clear(d.Reqs)
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("record+collect: %v allocations per cycle, want 0", got)
	}
}
