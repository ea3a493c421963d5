package core

import (
	"bytes"
	"testing"
	"testing/quick"

	"rex/internal/trace"
)

func TestSnapshotBlobRoundTrip(t *testing.T) {
	s := &snapshotBlob{
		MarkID: 77,
		Inst:   123,
		Cut:    trace.Cut{4, 9, 0},
		LiveReqs: []trace.IndexedReq{
			{Idx: 3, Req: trace.Req{Client: 1, Seq: 2, Body: []byte("abc")}},
			{Idx: 9, Req: trace.Req{Client: 4, Seq: 1, Body: nil}},
		},
		Dedup: map[uint64]dedupEntry{
			1: {seq: 2, resp: []byte("ok")},
			4: {seq: 1, resp: nil},
		},
		Versions: []uint64{0, 5, 17},
		App:      []byte("application-state"),
	}
	got, err := decodeSnapshot(s.encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.MarkID != 77 || got.Inst != 123 || !got.Cut.Equal(s.Cut) {
		t.Errorf("header = %+v", got)
	}
	if len(got.LiveReqs) != 2 || got.LiveReqs[0].Idx != 3 || string(got.LiveReqs[0].Req.Body) != "abc" {
		t.Errorf("live reqs = %+v", got.LiveReqs)
	}
	if len(got.Dedup) != 2 || got.Dedup[1].seq != 2 || string(got.Dedup[1].resp) != "ok" {
		t.Errorf("dedup = %+v", got.Dedup)
	}
	if len(got.Versions) != 3 || got.Versions[2] != 17 {
		t.Errorf("versions = %v", got.Versions)
	}
	if string(got.App) != "application-state" {
		t.Errorf("app = %q", got.App)
	}
}

func TestSnapshotBlobDeterministicEncoding(t *testing.T) {
	// Map iteration must not leak into the bytes: two encodes are equal.
	s := &snapshotBlob{
		Dedup: map[uint64]dedupEntry{
			9: {seq: 1}, 3: {seq: 2}, 7: {seq: 3}, 1: {seq: 4}, 5: {seq: 5},
		},
	}
	a := s.encode()
	for i := 0; i < 10; i++ {
		if !bytes.Equal(a, s.encode()) {
			t.Fatal("snapshot encoding not deterministic")
		}
	}
}

func TestSnapshotDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeSnapshot(nil); err == nil {
		t.Error("decoded empty blob")
	}
	if _, err := decodeSnapshot([]byte{0xee, 1, 2, 3}); err == nil {
		t.Error("decoded wrong version")
	}
	s := &snapshotBlob{MarkID: 1, Cut: trace.Cut{1}, App: []byte("x")}
	b := s.encode()
	for cut := 1; cut < len(b); cut++ {
		if _, err := decodeSnapshot(b[:cut]); err == nil {
			t.Fatalf("decoded truncated blob (%d/%d)", cut, len(b))
		}
	}
}

func TestCtrlMsgRoundTrip(t *testing.T) {
	f := func(kind byte, applied, backlog uint64, blob []byte) bool {
		if kind == 0 {
			kind = 1
		}
		m := &ctrlMsg{Kind: kind, Applied: applied, Backlog: backlog, Blob: blob}
		got, ok := decodeCtrl(m.encode())
		return ok && got.Kind == kind && got.Applied == applied &&
			got.Backlog == backlog && bytes.Equal(got.Blob, blob)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if _, ok := decodeCtrl(nil); ok {
		t.Error("decoded empty control message")
	}
}

func TestHashResponseStable(t *testing.T) {
	a := hashResponse([]byte("hello"))
	b := hashResponse([]byte("hello"))
	c := hashResponse([]byte("hellp"))
	if a != b {
		t.Error("hash not deterministic")
	}
	if a == c {
		t.Error("hash collision on trivially different inputs")
	}
	if hashResponse(nil) == a {
		t.Error("nil hash equals non-empty hash")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := (&Config{}).withDefaults()
	if cfg.Workers <= 0 || cfg.HeartbeatEvery <= 0 ||
		cfg.ElectionTimeout != DefaultElectionTimeout || cfg.MaxOutstanding <= 0 ||
		cfg.StatusEvery <= 0 || cfg.LagLimitEvents == 0 {
		t.Errorf("defaults incomplete: %+v", cfg)
	}
}

func TestRoleString(t *testing.T) {
	if RolePrimary.String() != "primary" || RoleSecondary.String() != "secondary" ||
		RoleFaulted.String() != "faulted" {
		t.Error("role strings wrong")
	}
	if Role(99).String() == "" {
		t.Error("unknown role empty")
	}
}

func TestSnapFrameMatchesCtrlEncoding(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 1 << 20} {
		blob := bytes.Repeat([]byte{0xa5}, n)
		buf := append(make([]byte, snapHeadroom), blob...)
		want := (&ctrlMsg{Kind: ctrlSnapBlob, Blob: blob}).encode()
		if got := snapFrame(buf); !bytes.Equal(got, want) {
			t.Fatalf("%d-byte blob: frame header %x, want %x", n, got[:8], want[:8])
		}
	}
}
