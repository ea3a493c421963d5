package paxos

import (
	"bytes"
	"testing"
	"testing/quick"

	"rex/internal/wire"
)

// encode returns m's wire form in a buffer of its own.
func (m *message) encode() []byte {
	e := wire.NewEncoder(nil)
	m.encodeTo(e)
	return e.Bytes()
}

// decodeMessage decodes a frame the caller owns into a new message.
func decodeMessage(buf []byte) (*message, error) {
	m := &message{}
	if err := m.decode(buf, false); err != nil {
		return nil, err
	}
	return m, nil
}

func TestBallotOrdering(t *testing.T) {
	cases := []struct {
		a, b Ballot
		less bool
	}{
		{Ballot{1, 0}, Ballot{2, 0}, true},
		{Ballot{2, 0}, Ballot{1, 5}, false},
		{Ballot{1, 1}, Ballot{1, 2}, true},
		{Ballot{1, 2}, Ballot{1, 2}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v < %v = %v, want %v", c.a, c.b, got, c.less)
		}
	}
	if !(Ballot{}).IsZero() {
		t.Error("zero ballot not zero")
	}
	if (Ballot{1, 0}).IsZero() {
		t.Error("nonzero ballot zero")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := &message{
		Kind:      mPromise,
		Ballot:    Ballot{Round: 7, Node: 2},
		Inst:      11,
		FromInst:  3,
		ChosenSeq: 10,
		Val:       []byte("proposal"),
		Accepted: []acceptedEntry{
			{Inst: 10, Ballot: Ballot{6, 1}, Val: []byte("old")},
			{Inst: 11, Ballot: Ballot{7, 2}, Val: nil},
		},
		Vals: [][]byte{[]byte("a"), nil, []byte("ccc")},
	}
	got, err := decodeMessage(m.encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Kind != m.Kind || got.Ballot != m.Ballot || got.Inst != m.Inst ||
		got.FromInst != m.FromInst || got.ChosenSeq != m.ChosenSeq {
		t.Errorf("header: %+v", got)
	}
	if !bytes.Equal(got.Val, m.Val) {
		t.Errorf("val = %q", got.Val)
	}
	if len(got.Accepted) != 2 || got.Accepted[0].Inst != 10 || got.Accepted[0].Ballot != (Ballot{6, 1}) {
		t.Errorf("accepted = %+v", got.Accepted)
	}
	if len(got.Vals) != 3 || string(got.Vals[2]) != "ccc" {
		t.Errorf("vals = %+v", got.Vals)
	}
	// An empty value still reads as nil.
	if got.Accepted[1].Val != nil || got.Vals[1] != nil {
		t.Errorf("empty values decoded as %#v and %#v, want nil", got.Accepted[1].Val, got.Vals[1])
	}
}

func TestMessageDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeMessage(nil); err == nil {
		t.Error("decoded empty message")
	}
	m := &message{Kind: mAccept, Ballot: Ballot{1, 1}, Inst: 2, Val: []byte("v")}
	b := m.encode()
	for cut := 0; cut < len(b); cut++ {
		if _, err := decodeMessage(b[:cut]); err == nil {
			t.Fatalf("decoded truncated message (%d/%d)", cut, len(b))
		}
	}
	// Invalid kind byte.
	b[0] = 0xfe
	if _, err := decodeMessage(b); err == nil {
		t.Error("decoded invalid kind")
	}
}

func TestQuickMessageRoundTrip(t *testing.T) {
	f := func(kind uint8, round uint64, node uint32, inst, from, chosen uint64, val []byte, vals [][]byte) bool {
		k := msgKind(kind%uint8(mLearnNack)) + 1
		m := &message{
			Kind:      k,
			Ballot:    Ballot{Round: round, Node: node},
			Inst:      inst,
			FromInst:  from,
			ChosenSeq: chosen,
			Val:       val,
			Vals:      vals,
		}
		got, err := decodeMessage(m.encode())
		if err != nil {
			return false
		}
		if got.Kind != k || got.Ballot != m.Ballot || got.Inst != inst ||
			got.FromInst != from || got.ChosenSeq != chosen || !bytes.Equal(got.Val, val) {
			return false
		}
		if len(got.Vals) != len(vals) {
			return false
		}
		for i := range vals {
			if !bytes.Equal(got.Vals[i], vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
