package rebalance

import (
	"bytes"
	"runtime"
	"testing"
)

// minAllocBytes returns the bytes the process allocated while a
// repeatable f ran. A run within limit settles it; a run over limit is
// repeated and the least of five kept, so an allocation by some other
// goroutine cannot fail a pin.
func minAllocBytes(limit uint64, f func()) uint64 {
	var least uint64
	for i := 0; i < 5 && (i == 0 || least > limit); i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; i == 0 || got < least {
			least = got
		}
	}
	return least
}

// maxDecodeAlloc bounds what decoding n input bytes may allocate: every
// count is bounded by the input, and each item costs a few dozen bytes.
func maxDecodeAlloc(n int) uint64 { return 128*uint64(n) + 4096 }

// groupStatusCountProbes are short status replies whose span counts
// announce far more spans (2^20, 2^40) than the input holds.
func groupStatusCountProbes() [][]byte {
	return [][]byte{
		{0, 0, 0, 0x80, 0x80, 0x40},                         // 2^20 owned spans
		{0, 0, 0, 0, 0, 0x80, 0x80, 0x40},                   // 2^20 staged spans
		{0, 0, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0, 0}, // 2^40 owned spans
	}
}

func FuzzDecodeGroupStatus(f *testing.F) {
	f.Add((&GroupStatus{
		Version: 7, Home: true, Pending: true,
		Owned:  []Span{{Lo: 0, Hi: 1 << 63, Epoch: 3}},
		Frozen: []Span{{Lo: 1 << 62, Hi: 1 << 63, Epoch: 8}},
		Staged: []Span{{Lo: 5, Hi: 9, Epoch: 8, Bytes: 4096}},
	}).encode())
	f.Add((&GroupStatus{}).encode())
	for _, p := range groupStatusCountProbes() {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var gs *GroupStatus
		var err error
		if got := minAllocBytes(maxDecodeAlloc(len(data)), func() { gs, err = DecodeGroupStatus(data) }); got > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		enc := gs.encode()
		again, err := DecodeGroupStatus(enc)
		if err != nil || !bytes.Equal(again.encode(), enc) {
			t.Fatalf("status reply does not round-trip (%v): %x", err, enc)
		}
	})
}
