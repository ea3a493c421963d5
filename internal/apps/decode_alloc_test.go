//go:build !race

package apps

import (
	"bytes"
	"testing"

	"rex/internal/alloctest"
)

// TestReadCheckpointCountsBoundedByInput pins the checkpoint readers'
// allocation on checkpoints whose counts claim far more items than they
// carry (a 3-byte lsmkv checkpoint once allocated 100 MB).
func TestReadCheckpointCountsBoundedByInput(t *testing.T) {
	for _, ca := range checkpointApps {
		sm := newStateMachine(t, ca.app).SM
		for i, p := range checkpointCountProbes(ca.header) {
			var err error
			got := alloctest.MinBytes(1023, func() { err = sm.ReadCheckpoint(bytes.NewReader(p)) })
			if err == nil {
				t.Errorf("%s probe %d (%x) read", ca.app.Name, i, p)
			}
			if got >= 1024 {
				t.Errorf("%s probe %d (%d bytes) allocated %d bytes, want < 1 kB", ca.app.Name, i, len(p), got)
			}
		}
	}
}
