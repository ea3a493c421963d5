//go:build !race

package paxos

import "testing"

// TestDecodeMessageCountsBoundedByInput pins the decoder's allocation on
// frames whose counts claim far more items than they carry: the 11-byte
// probe (2^20 accepted entries) once allocated 257 MB.
func TestDecodeMessageCountsBoundedByInput(t *testing.T) {
	for i, p := range countProbes() {
		got := minAllocBytes(func() {
			if _, err := decodeMessage(p); err == nil {
				t.Errorf("probe %d (%x) decoded", i, p)
			}
		})
		if got >= 1024 {
			t.Errorf("probe %d (%d bytes) allocated %d bytes, want < 1 kB", i, len(p), got)
		}
	}
}
