package shard

import (
	"bytes"
	"runtime"
	"testing"
)

// minAllocBytes returns the bytes the process allocated while a
// repeatable f ran. A run within limit settles it; a run over limit is
// repeated and the least of five kept, so an allocation by some other
// goroutine cannot fail a pin. Reading the counters stops the world, the
// larger part of a fuzz execution's cost, so a run within limit is never
// repeated.
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

// shardMapCountProbes are short maps whose counts announce far more
// replicas, groups or ranges than the input holds.
func shardMapCountProbes() [][]byte {
	return [][]byte{
		{1, 0x80, 0x80, 0x80, 0x08, 1, 0x80, 0x80, 0x80, 0x08},                         // nodes = replicas = 2^24
		{1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 1, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20}, // nodes = replicas = 2^40
		{1, 1, 0x80, 0x80, 0x04},          // 2^16 groups
		{1, 1, 1, 1, 0, 0x80, 0x80, 0x40}, // 2^20 ranges
	}
}

func FuzzDecodeShardMap(f *testing.F) {
	m, err := NewShardMap(3, 4, 5, 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(m.EncodeBytes())
	for _, p := range shardMapCountProbes() {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var dm *ShardMap
		var err error
		if got := minAllocBytes(maxDecodeAlloc(len(data)), func() { dm, err = DecodeShardMapBytes(data) }); got > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		enc := dm.EncodeBytes()
		again, err := DecodeShardMapBytes(enc)
		if err != nil {
			t.Fatalf("re-decoding a valid map: %v", err)
		}
		if !bytes.Equal(again.EncodeBytes(), enc) {
			t.Fatalf("map does not round-trip:\n%x\n%x", enc, again.EncodeBytes())
		}
	})
}
