//go:build !race

package trace_test

import (
	"testing"

	"rex/internal/alloctest"
	"rex/internal/trace"
	"rex/internal/trace/tracetest"
)

// putThreads is the worker count of the put-shaped deltas below.
const putThreads = 4

// TestApplyCommittedDeltaAllocs pins the steady-state cost of folding a
// committed delta into the trace: decoding into a reused scratch and
// applying it allocate nothing but the trace's storage chunks, well under
// one allocation per delta.
func TestApplyCommittedDeltaAllocs(t *testing.T) {
	tr := trace.New(putThreads)
	var d trace.Delta
	apply := func(v []byte) {
		if err := d.DecodeFrom(v); err != nil {
			t.Fatal(err)
		}
		if err := tr.Apply(&d); err != nil {
			t.Fatal(err)
		}
	}
	warm, _ := tracetest.PutDeltas(tr, 2000, 2)
	for _, v := range warm { // warm the trace and the scratch
		apply(v)
	}
	const runs = 1000
	vals, _ := tracetest.PutDeltas(tr, runs+1, 2) // AllocsPerRun makes one extra warm-up call
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		apply(vals[next])
		next++
	})
	if got > 1 {
		t.Errorf("decode+apply: %v allocations per delta, want at most 1", got)
	}
}

// TestReplayCycleReusesStorage pins what a replica's trace allocates per
// committed delta once warm: decode, Apply, the next consistent cut into
// the cut it retired, PruneTo behind it on every thread and Forget of the
// collected requests. Dropped chunks and request arrays come back from
// the spare lists, so the one allocation left is each new chunk's fresh
// edge buffer, which the trace keeps: nothing at all for a stream without
// edges, and at most twice the stored edges' 8 bytes each with them.
func TestReplayCycleReusesStorage(t *testing.T) {
	for _, edged := range []int{0, 2} {
		tr := trace.New(putThreads)
		var d trace.Delta
		lcc, spare := make(trace.Cut, putThreads), make(trace.Cut, putThreads)
		cycle := func(vals [][]byte) {
			for _, v := range vals {
				if err := d.DecodeFrom(v); err != nil {
					t.Fatal(err)
				}
				if err := tr.Apply(&d); err != nil {
					t.Fatal(err)
				}
				next, err := tr.ConsistentCutInto(spare, lcc)
				if err != nil {
					t.Fatal(err)
				}
				lcc, spare = next, lcc
				for th, c := range lcc {
					tr.PruneTo(th, c)
				}
				tr.Forget(lcc, tr.ReqEnd())
			}
		}
		warm, _ := tracetest.PutDeltas(tr, 4*trace.ChunkLen, edged) // several chunks per thread
		cycle(warm)
		const deltas = 8 * trace.ChunkLen
		vals, edges := tracetest.PutDeltas(tr, deltas, edged)
		limit := uint64(16 * edges)
		if got := alloctest.Bytes(func() { cycle(vals) }); got > limit {
			t.Errorf("%d edged acquires per put: %d deltas allocated %d bytes (%.1f per delta), want at most %d for %d stored edges",
				edged, deltas, got, float64(got)/deltas, limit, edges)
		}
	}
}

// BenchmarkApplyCommittedDelta measures what every replica does per
// committed instance: decode the delta into a reused scratch and apply it
// to a warm trace. The trace is garbage collected every 4096 deltas, as a
// checkpoint would; encoding the deltas is not timed.
func BenchmarkApplyCommittedDelta(b *testing.B) {
	tr := trace.New(putThreads)
	var d trace.Delta
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		vals, _ := tracetest.PutDeltas(tr, min(b.N-done, 4096), 2)
		b.StartTimer()
		for _, v := range vals {
			if err := d.DecodeFrom(v); err != nil {
				b.Fatal(err)
			}
			if err := tr.Apply(&d); err != nil {
				b.Fatal(err)
			}
		}
		tr.Forget(tr.Cut(), tr.ReqEnd())
		done += len(vals)
	}
}
