//go:build !race

package rebalance

import (
	"testing"

	"rex/internal/alloctest"
)

// TestDecodeGroupStatusCountsBoundedByInput pins the status reply
// decoder's allocation on replies whose span counts claim far more spans
// than they carry (a 6-byte reply once allocated 33.5 MB).
func TestDecodeGroupStatusCountsBoundedByInput(t *testing.T) {
	for i, p := range groupStatusCountProbes() {
		var err error
		got := alloctest.MinBytes(1023, func() { _, err = DecodeGroupStatus(p) })
		if err == nil {
			t.Errorf("probe %d (%x) decoded", i, p)
		}
		if got >= 1024 {
			t.Errorf("probe %d (%d bytes) allocated %d bytes, want < 1 kB", i, len(p), got)
		}
	}
}
