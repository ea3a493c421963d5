package lsmkv

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"rex/internal/sim"
)

// TestCheckpointBytesGolden pins the checkpoint encoding: a store with
// live keys, tombstones and flushed runs in every slice, and values large
// enough to span several write chunks, serializes to exactly the bytes
// the whole-state encoder wrote before checkpoints were streamed.
func TestCheckpointBytesGolden(t *testing.T) {
	const (
		wantLen  = 410440
		wantHash = "a3c3195663f8fa0ccbb076f6eec3ef2b8aecfe9c644655bc8096691589e4da44"
	)
	e := sim.New(2)
	e.Run(func() {
		opts := DefaultOptions()
		opts.Slices = 8
		opts.FlushBytes = 4 << 10
		h := newHost(t, e, opts)
		for i := 0; i < 600; i++ {
			val := bytes.Repeat([]byte{byte(i)}, 1+i*37%300)
			if i%97 == 0 {
				val = bytes.Repeat([]byte("big"), 15000)
			}
			h.Apply(0, PutReq(fmt.Sprintf("key-%04d", i*7919%1000), val))
			if i%11 == 0 {
				h.Apply(0, DelReq(fmt.Sprintf("key-%04d", i*31%1000)))
			}
		}
		runs := 0
		for _, sl := range h.SM.(*Store).slices {
			runs += len(sl.runs)
		}
		if runs == 0 {
			t.Fatal("no slice flushed a run")
		}
		var buf bytes.Buffer
		if err := h.SM.WriteCheckpoint(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); buf.Len() != wantLen || got != wantHash {
			t.Errorf("checkpoint is %d bytes with sha256 %s, want %d bytes with %s", buf.Len(), got, wantLen, wantHash)
		}
	})
}
