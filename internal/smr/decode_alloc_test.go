//go:build !race

package smr

import (
	"reflect"
	"testing"

	"rex/internal/alloctest"
)

// TestDecodeBatchCountBoundedByInput pins decodeBatch's allocation on
// batches whose count claims far more entries than they carry (the 4-byte
// probe once preallocated 805 MB).
func TestDecodeBatchCountBoundedByInput(t *testing.T) {
	probes := [][]byte{
		{0x80, 0x80, 0x80, 0x08},             // uvarint 2^24, no entries
		{0x80, 0x80, 0x40, 0, 1, 2, 0},       // 2^20, one entry
		{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}, // 2^35 - 1
	}
	for i, p := range probes {
		got := alloctest.MinBytes(1023, func() {
			if _, err := decodeBatch(p); err == nil {
				t.Errorf("probe %d (%x) decoded", i, p)
			}
		})
		if got >= 1024 {
			t.Errorf("probe %d (%d bytes) allocated %d bytes, want < 1 kB", i, len(p), got)
		}
	}
}

func TestDecodeBatchRoundTrip(t *testing.T) {
	batch := []batchReq{
		{Timer: -1, Client: 7, Seq: 3, Body: []byte("put k v")},
		{Timer: 2},
	}
	got, err := decodeBatch(encodeBatch(batch))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("round trip: got %+v, want %+v", got, batch)
	}
}
