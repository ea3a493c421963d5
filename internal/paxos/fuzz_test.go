package paxos

import (
	"bytes"
	"testing"

	"rex/internal/alloctest"
)

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
		if got := alloctest.MinBytes(alloctest.MaxDecode(len(data), 64), func() { m, err = decodeMessage(data) }); got > alloctest.MaxDecode(len(data), 64) {
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

// FuzzDecodeLentFrame guards the borrowing rule: a message decoded from a
// lent frame holds nothing of it, so overwriting the frame afterwards, as
// the endpoint's next read does, leaves the message equal to a decode of
// an untouched copy.
func FuzzDecodeLentFrame(f *testing.F) {
	for _, m := range []*message{
		{Kind: mAccept, Ballot: Ballot{3, 1}, Inst: 9, Epoch: 1, Val: []byte("delta")},
		{Kind: mEpochNack, Epoch: 4, FromInst: 2, Val: []byte("membership")},
		{Kind: mPromise, Ballot: Ballot{2, 2}, ChosenSeq: 4, Accepted: []acceptedEntry{{Inst: 4, Ballot: Ballot{1, 0}, Val: []byte("a")}}},
		{Kind: mLearnReply, FromInst: 7, Vals: [][]byte{[]byte("x"), nil, []byte("yz")}},
	} {
		f.Add(m.encode())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var lent, owned message
		if err := owned.decode(bytes.Clone(data), false); err != nil {
			return
		}
		if err := lent.decode(data, true); err != nil {
			t.Fatalf("a lent frame failed to decode: %v", err)
		}
		for i := range data {
			data[i] = 0xa5
		}
		if !bytes.Equal(lent.encode(), owned.encode()) {
			t.Fatalf("a message decoded from a lent frame changed with the frame:\n%x\n%x", lent.encode(), owned.encode())
		}
	})
}
