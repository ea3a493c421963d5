//go:build !race

package core

import (
	"testing"

	"rex/internal/env"
	"rex/internal/storage"
	"rex/internal/trace"
	"rex/internal/transport"
)

// TestDecodeSnapshotCountsBoundedByInput pins the checkpoint decoders'
// allocation on blobs whose counts claim far more items than they carry
// (each once appended up to 2^24 entries before failing).
func TestDecodeSnapshotCountsBoundedByInput(t *testing.T) {
	for i, p := range snapshotCountProbes() {
		got := minAllocBytes(func() {
			if _, err := decodeSnapshot(p); err == nil {
				t.Errorf("probe %d (%x) decoded", i, p)
			}
			decodeSnapshotHeader(p)
		})
		if got >= 1024 {
			t.Errorf("probe %d (%d bytes) allocated %d bytes, want < 1 kB", i, len(p), got)
		}
	}
}

// TestAcceptSnapshotCopyDoesNotCopyBlob pins the receive side of a
// checkpoint push: the blob is judged from its header and stored as
// received, never decoded in full or copied.
func TestAcceptSnapshotCopyDoesNotCopyBlob(t *testing.T) {
	snaps, err := storage.NewFileSnapshots(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := env.NewReal()
	r, err := NewReplica(Config{
		ID: 0, N: 1, Env: e,
		Endpoint:  transport.NewNetwork(e, 1, 0, 1).Endpoint(0),
		Log:       storage.NewMemLog(),
		Snapshots: snaps,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.mux.Close()
	app := make([]byte, 1<<20)
	blob := func(inst uint64) []byte {
		return (&snapshotBlob{MarkID: inst, Inst: inst, Cut: trace.Cut{1, 2, 3, 4}, App: app}).encode()
	}
	blobs := [][]byte{blob(1), blob(2), blob(3)}
	r.acceptSnapshotCopy(blobs[0], 1) // warm up the store
	for i, b := range blobs[1:] {
		if got := allocBytes(func() { r.acceptSnapshotCopy(b, 1) }); got >= 64<<10 {
			t.Errorf("accepting a %d-byte checkpoint allocated %d bytes, want < 64 kB", len(b), got)
		}
		if id, _, ok, _ := snaps.Load(); !ok || id != uint64(i+2) {
			t.Fatalf("stored checkpoint %d, want %d", id, i+2)
		}
	}
	if got := minAllocBytes(func() { r.acceptSnapshotCopy(blobs[0], 1) }); got >= 4<<10 {
		t.Errorf("rejecting a stale checkpoint allocated %d bytes", got)
	}
}
