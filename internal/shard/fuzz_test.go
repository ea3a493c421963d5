package shard

import (
	"bytes"
	"testing"

	"rex/internal/alloctest"
)

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
		if got := alloctest.MinBytes(alloctest.MaxDecode(len(data), 128), func() { dm, err = DecodeShardMapBytes(data) }); got > alloctest.MaxDecode(len(data), 128) {
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
