//go:build !race

package paxos

import "testing"

// TestDecodeMessageCountsBoundedByInput pins the decoder's allocation on
// frames whose counts claim far more items than they carry: the 11-byte
// probe (2^20 accepted entries) once allocated 257 MB.
func TestDecodeMessageCountsBoundedByInput(t *testing.T) {
	for i, p := range countProbes() {
		got := minAllocBytes(1023, func() {
			if _, err := decodeMessage(p); err == nil {
				t.Errorf("probe %d (%x) decoded", i, p)
			}
		})
		if got >= 1024 {
			t.Errorf("probe %d (%d bytes) allocated %d bytes, want < 1 kB", i, len(p), got)
		}
	}
}

// TestAcceptCodecAllocs pins the per-message cost of the replication
// path's largest message: encoding an Accept allocates only its
// exact-size result (the scratch encoder is pooled), and decoding one allocates only the message, its value
// aliasing the frame.
func TestAcceptCodecAllocs(t *testing.T) {
	m := &message{Kind: mAccept, Ballot: Ballot{4, 1}, Inst: 1 << 20, Epoch: 2, Val: make([]byte, 7000)}
	var frame []byte
	if got := testing.AllocsPerRun(100, func() { frame = m.encode() }); got != 1 {
		t.Errorf("encode: %v allocations, want 1", got)
	}
	if len(frame) != cap(frame) {
		t.Errorf("encode: %d bytes in a %d-byte buffer, want an exact fit", len(frame), cap(frame))
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := decodeMessage(frame); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("decode: %v allocations, want 1", got)
	}
}
