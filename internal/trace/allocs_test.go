//go:build !race

package trace

import "testing"

// TestApplyCommittedDeltaAllocs pins the steady-state cost of folding a
// committed delta into the trace: decoding into a reused scratch and
// applying it allocate nothing but the trace's storage chunks, well under
// one allocation per delta.
func TestApplyCommittedDeltaAllocs(t *testing.T) {
	tr := New(putThreads)
	var d Delta
	apply := func(v []byte) {
		if err := d.DecodeFrom(v); err != nil {
			t.Fatal(err)
		}
		if err := tr.Apply(&d); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range putDeltas(tr, 2000) { // warm the trace and the scratch
		apply(v)
	}
	const runs = 1000
	vals := putDeltas(tr, runs+1) // AllocsPerRun makes one extra warm-up call
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		apply(vals[next])
		next++
	})
	if got > 1 {
		t.Errorf("decode+apply: %v allocations per delta, want at most 1", got)
	}
}
