//go:build !race

package paxos

import (
	"testing"

	"rex/internal/alloctest"
	"rex/internal/wire"
)

// TestDecodeMessageCountsBoundedByInput pins the decoder's allocation on
// frames whose counts claim far more items than they carry: the 11-byte
// probe (2^20 accepted entries) once allocated 257 MB.
func TestDecodeMessageCountsBoundedByInput(t *testing.T) {
	for i, p := range countProbes() {
		got := alloctest.MinBytes(1023, func() {
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
// path's largest message: encoding an Accept into the node's reused
// scratch encoder allocates nothing, and decoding a lent Accept frame into
// a reused message allocates exactly its value's copy, which fits the
// value.
func TestAcceptCodecAllocs(t *testing.T) {
	m := &message{Kind: mAccept, Ballot: Ballot{4, 1}, Inst: 1 << 20, Epoch: 2, Val: make([]byte, 7000)}
	e := wire.NewEncoder(nil)
	if got := testing.AllocsPerRun(100, func() {
		e.Reset()
		m.encodeTo(e)
	}); got != 0 {
		t.Errorf("encode: %v allocations, want 0", got)
	}
	frame := e.Bytes()
	var got message
	if n := testing.AllocsPerRun(100, func() {
		if err := got.decode(frame, true); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("decode: %v allocations, want 1", n)
	}
	if len(got.Val) != len(m.Val) || cap(got.Val) != len(m.Val) {
		t.Errorf("decoded value: %d bytes in a %d-byte buffer, want a fit of %d", len(got.Val), cap(got.Val), len(m.Val))
	}
	e.Reset()
	(&message{Kind: mAccepted, Ballot: Ballot{4, 1}, Inst: 1 << 20}).encodeTo(e)
	frame = e.Bytes()
	if n := testing.AllocsPerRun(100, func() {
		if err := got.decode(frame, true); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decode accepted: %v allocations, want 0", n)
	}
}
