package core

import (
	"bytes"
	"testing"

	"rex/internal/alloctest"
	"rex/internal/reconfig"
	"rex/internal/trace"
)

func FuzzDecodeCtrl(f *testing.F) {
	f.Add((&ctrlMsg{Kind: ctrlStatus, Applied: 7, Backlog: 3}).encode())
	f.Add((&ctrlMsg{Kind: ctrlSnapBlob, Blob: []byte("checkpoint")}).encode())
	f.Add([]byte{ctrlSnapBlob, 0, 0, 0x80, 0x80, 0x80, 0x08}) // blob claims 2^24 bytes
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m *ctrlMsg
		var ok bool
		if got := alloctest.MinBytes(alloctest.MaxDecode(len(data), 128), func() { m, ok = decodeCtrl(data) }); got > alloctest.MaxDecode(len(data), 128) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if !ok {
			return
		}
		enc := m.encode()
		again, ok := decodeCtrl(enc)
		if !ok || !bytes.Equal(again.encode(), enc) {
			t.Fatalf("control message does not round-trip: %x", enc)
		}
	})
}

func FuzzDecodeSnapshot(f *testing.F) {
	full := &snapshotBlob{
		MarkID:   3,
		Inst:     41,
		Cut:      trace.Cut{5, 0, 2},
		LiveReqs: []trace.IndexedReq{{Idx: 2, Req: trace.Req{Client: 1, Seq: 4, Class: 2, Body: []byte("put")}}},
		Dedup:    map[uint64]dedupEntry{1: {seq: 3, resp: []byte("ok")}, 9: {seq: 1}},
		Versions: []uint64{0, 6},
		App:      []byte("state"),
		Configs:  []reconfig.Scheduled{{FromInst: 0, M: reconfig.Initial(3)}},
	}
	f.Add(full.encode())
	f.Add((&snapshotBlob{}).encode())
	for _, p := range snapshotCountProbes() {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var head, s *snapshotBlob
		var errHead, err error
		got := alloctest.MinBytes(alloctest.MaxDecode(len(data), 128), func() {
			head, errHead = decodeSnapshotHeader(data)
			s, err = decodeSnapshot(data)
		})
		if got > alloctest.MaxDecode(len(data), 128) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		if errHead != nil {
			t.Fatalf("full decode succeeded but the header decode failed: %v", errHead)
		}
		if head.MarkID != s.MarkID || head.Inst != s.Inst || !head.Cut.Equal(s.Cut) {
			t.Fatalf("header %+v disagrees with the full decode %+v", head, s)
		}
		enc := s.encode()
		again, err := decodeSnapshot(enc)
		if err != nil {
			t.Fatalf("re-decoding a valid snapshot: %v", err)
		}
		if !bytes.Equal(again.encode(), enc) {
			t.Fatalf("snapshot does not round-trip:\n%x\n%x", enc, again.encode())
		}
	})
}

// snapshotCountProbes are minimal blobs in which one repeated-item count
// (cut entries, live requests, versions, dedup entries, scheduled configs)
// claims 2^20 items the input cannot hold.
func snapshotCountProbes() [][]byte {
	huge := []byte{0x80, 0x80, 0x40} // uvarint 2^20
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	head := []byte{snapshotVersion, 1, 0, 0, 0} // version, empty schedule, mark id, instance
	noApp := make([]byte, 8)                    // zero-length app state
	return [][]byte{
		cat(head, huge),                                 // cut
		cat(head, []byte{0}, noApp, huge),               // live requests
		cat(head, []byte{0}, noApp, []byte{0}, huge),    // versions
		cat(head, []byte{0}, noApp, []byte{0, 0}, huge), // dedup entries
		cat([]byte{snapshotVersion, 3}, huge),           // scheduled configs
	}
}
