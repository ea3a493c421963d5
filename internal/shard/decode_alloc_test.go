//go:build !race

package shard

import (
	"testing"

	"rex/internal/alloctest"
)

// TestDecodeShardMapCountsBoundedByInput pins DecodeShardMap's allocation
// on maps whose counts claim far more items than they carry: the 10-byte
// probe once allocated 134 MB before failing, and the 14-byte one ran the
// process out of memory. Both a fetched map (server.Client) and a
// client-proposed one (rebalance) reach this decoder.
func TestDecodeShardMapCountsBoundedByInput(t *testing.T) {
	for i, p := range shardMapCountProbes() {
		got := alloctest.MinBytes(1023, func() {
			if _, err := DecodeShardMapBytes(p); err == nil {
				t.Errorf("probe %d (%x) decoded", i, p)
			}
		})
		if got >= 1024 {
			t.Errorf("probe %d (%d bytes) allocated %d bytes, want < 1 kB", i, len(p), got)
		}
	}
}
