//go:build !race

package sched

import (
	"math"
	"testing"

	"rex/internal/alloctest"
	"rex/internal/env"
	"rex/internal/trace"
	"rex/internal/trace/tracetest"
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

// TestReplayPathReusesStorage pins a secondary's follow stage per
// committed delta once warm: decode into a reused scratch, Extend (apply,
// the next release limit into the retired one, a commit-lag watermark
// into a retired mark's cut), then Next, In, WaitSources and Commit for
// every event, which prunes each chunk its thread has executed past, and
// every 64 deltas the Forget a checkpoint makes. The trace's dropped
// chunks and request arrays come back from its spare lists, so the
// stream's only allocations are the fresh edge buffers of new chunks,
// which the trace keeps: at most twice the stored edges' 8 bytes each.
func TestReplayPathReusesStorage(t *testing.T) {
	const threads = 4
	tr := trace.New(threads)
	rep, err := NewReplayer(env.NewReal(), tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep.ob = NewReplayObs()
	// ForgetThrough clamps its cut to what replay executed.
	through := trace.Cut{math.MaxInt32, math.MaxInt32, math.MaxInt32, math.MaxInt32}
	var d trace.Delta
	replay := func(vals [][]byte) {
		for i, v := range vals {
			if err := d.DecodeFrom(v); err != nil {
				t.Fatal(err)
			}
			if err := rep.Extend(&d); err != nil {
				t.Fatal(err)
			}
			for th := range d.Threads {
				for range d.Threads[th].Events {
					_, id, ok := rep.Next(int32(th))
					if !ok || !rep.WaitSources(rep.In(id)) {
						t.Fatal("replayer aborted")
					}
					rep.Commit(int32(th))
				}
			}
			if i%64 == 63 {
				rep.ForgetThrough(through)
			}
		}
	}
	warm, _ := tracetest.PutDeltas(tr, 4096, 1)
	replay(warm)
	vals, edges := tracetest.PutDeltas(tr, 4096, 1)
	limit := uint64(16 * edges)
	if got := alloctest.Bytes(func() { replay(vals) }); got > limit {
		t.Errorf("%d deltas allocated %d bytes (%.1f per delta), want at most %d for %d stored edges",
			len(vals), got, float64(got)/float64(len(vals)), limit, edges)
	}
}
