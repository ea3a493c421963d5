package paxos

import (
	"bytes"
	"runtime"
	"testing"
)

// allocBytes returns the bytes the process allocated while f ran.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// minAllocBytes is allocBytes for a repeatable f. A run within limit
// settles it; a run over limit is repeated and the least of five kept, so
// an allocation by some other goroutine cannot fail a pin. Reading the
// counters stops the world, the larger part of a fuzz execution's cost,
// so a run within limit is never repeated.
func minAllocBytes(limit uint64, f func()) uint64 {
	least := allocBytes(f)
	for i := 1; i < 5 && least > limit; i++ {
		least = min(least, allocBytes(f))
	}
	return least
}

// maxDecodeAlloc bounds what decoding n input bytes may allocate: every
// count is bounded by the input, and each item costs a few dozen bytes.
func maxDecodeAlloc(n int) uint64 { return 64*uint64(n) + 4096 }

func FuzzDecodeMessage(f *testing.F) {
	for _, m := range []*message{
		{Kind: mAccept, Ballot: Ballot{3, 1}, Inst: 9, Epoch: 1, Val: []byte("delta")},
		{Kind: mCommitRef, Ballot: Ballot{3, 1}, Inst: 9},
		{Kind: mPromise, Ballot: Ballot{2, 2}, ChosenSeq: 4, Accepted: []acceptedEntry{{Inst: 4, Ballot: Ballot{1, 0}, Val: []byte("a")}}},
		{Kind: mLearnReply, FromInst: 7, Vals: [][]byte{[]byte("x"), nil}},
	} {
		f.Add(m.encode())
	}
	for _, p := range countProbes() {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m *message
		var err error
		if got := minAllocBytes(maxDecodeAlloc(len(data)), func() { m, err = decodeMessage(data) }); got > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		enc := m.encode()
		again, err := decodeMessage(enc)
		if err != nil {
			t.Fatalf("re-decoding a valid message: %v", err)
		}
		if !bytes.Equal(again.encode(), enc) {
			t.Fatalf("message does not round-trip:\n%x\n%x", enc, again.encode())
		}
	})
}

// countProbes are minimal frames whose repeated-item counts claim 2^20
// items the input cannot hold.
func countProbes() [][]byte {
	header := []byte{byte(mPromise), 0, 0, 0, 0, 0, 0, 0} // kind, six uvarints, empty Val
	huge := []byte{0x80, 0x80, 0x40}                      // uvarint 2^20
	return [][]byte{
		append(append([]byte(nil), header...), huge...),            // accepted entries
		append(append(append([]byte(nil), header...), 0), huge...), // values
	}
}
