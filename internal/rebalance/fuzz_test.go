package rebalance

import (
	"bytes"
	"testing"

	"rex/internal/alloctest"
)

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
		if got := alloctest.MinBytes(alloctest.MaxDecode(len(data), 128), func() { gs, err = DecodeGroupStatus(data) }); got > alloctest.MaxDecode(len(data), 128) {
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
