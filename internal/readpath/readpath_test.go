package readpath

import (
	"testing"

	"rex/internal/trace"
	"rex/internal/wire"
)

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Level
		err  bool
	}{
		{"linearizable", Linearizable, false},
		{"lin", Linearizable, false},
		{"session", Session, false},
		{"eventual", Eventual, false},
		{"strong", 0, true},
		{"", 0, true},
	} {
		got, err := ParseLevel(tc.in)
		if tc.err != (err != nil) {
			t.Fatalf("ParseLevel(%q): err=%v, want err=%v", tc.in, err, tc.err)
		}
		if err == nil && got != tc.want {
			t.Fatalf("ParseLevel(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, l := range []Level{Linearizable, Session, Eventual} {
		back, err := ParseLevel(l.String())
		if err != nil || back != l {
			t.Fatalf("round-trip %v: got %v, %v", l, back, err)
		}
		if !l.Valid() {
			t.Fatalf("%v should be valid", l)
		}
	}
	if Level(7).Valid() {
		t.Fatal("Level(7) should be invalid")
	}
}

func TestTokenRoundTrip(t *testing.T) {
	toks := []Token{
		{},
		{Group: 3, Epoch: 9, Applied: 1234, Cut: trace.Cut{5, 0, 19}},
		{Applied: 1},
	}
	for _, tok := range toks {
		e := wire.NewEncoder(nil)
		tok.Encode(e)
		got, err := DecodeToken(wire.NewDecoder(e.Bytes()), nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.Group != tok.Group || got.Epoch != tok.Epoch || got.Applied != tok.Applied || !got.Cut.Equal(tok.Cut) {
			t.Fatalf("round trip: got %+v, want %+v", got, tok)
		}
	}
	// Empty bytes decode to the zero token.
	z, err := DecodeTokenBytes(nil, nil)
	if err != nil || !z.Zero() {
		t.Fatalf("DecodeTokenBytes(nil) = %+v, %v", z, err)
	}
	// Truncated bytes error rather than panic.
	full := toks[1].EncodeBytes()
	if _, err := DecodeTokenBytes(full[:len(full)-1], nil); err == nil {
		t.Fatal("truncated token should fail to decode")
	}
}

func TestTokenCovers(t *testing.T) {
	base := Token{Applied: 10, Cut: trace.Cut{4, 2}}
	if !base.Covers(Token{}) {
		t.Fatal("any token covers the zero token")
	}
	if !base.Covers(base) {
		t.Fatal("a token covers itself")
	}
	if base.Covers(Token{Applied: 11, Cut: trace.Cut{4, 2}}) {
		t.Fatal("lower applied must not cover")
	}
	if base.Covers(Token{Applied: 10, Cut: trace.Cut{5, 2}}) {
		t.Fatal("lower cut must not cover")
	}
	if !(Token{Applied: 12, Cut: trace.Cut{9, 9}}).Covers(base) {
		t.Fatal("strictly fresher token covers")
	}
}

func TestTokenMerge(t *testing.T) {
	// Same-epoch incomparable cuts (replicas at different replay progress)
	// merge pointwise: both cuts index the same trace lineage.
	a := Token{Epoch: 1, Applied: 10, Cut: trace.Cut{4, 2}}
	b := Token{Epoch: 1, Applied: 8, Cut: trace.Cut{1, 7, 3}}
	m := a.Merge(b)
	if m.Epoch != 1 || m.Applied != 10 {
		t.Fatalf("merge scalar: %+v", m)
	}
	want := trace.Cut{4, 7, 3}
	if !m.Cut.Equal(want) {
		t.Fatalf("merge cut = %v, want %v", m.Cut, want)
	}
	// Merge must not regress either input.
	if !m.Covers(a) || !m.Covers(b) {
		t.Fatal("merged token must cover both inputs")
	}
	// Merging the zero token is the identity.
	if got := a.Merge(Token{}); !got.Covers(a) || !a.Covers(got) {
		t.Fatalf("merge with zero changed token: %+v", got)
	}
}

func TestTokenMergeCrossEpoch(t *testing.T) {
	// Regression: cuts from different membership epochs index different
	// record incarnations (a new primary rebases thread clocks at its
	// promotion cut). A pointwise max across epochs fabricates a frontier
	// no replica ever reached — {9, 9} in epoch 2 below — which no replica
	// could ever cover, wedging the session. Merge must instead keep the
	// newer epoch's coordinates wholesale.
	old := Token{Epoch: 1, Applied: 10, Cut: trace.Cut{9, 9}}
	next := Token{Epoch: 2, Applied: 12, Cut: trace.Cut{1, 2}}
	for _, m := range []Token{old.Merge(next), next.Merge(old)} {
		if m.Epoch != 2 || m.Applied != 12 || !m.Cut.Equal(next.Cut) {
			t.Fatalf("cross-epoch merge must keep the newer token wholesale, got %+v", m)
		}
	}
	// Even when the stale epoch claims a higher Applied (impossible for a
	// correct replica, but tokens travel through clients), the newer epoch
	// wins: epoch ordering is authoritative.
	stale := Token{Epoch: 1, Applied: 99, Cut: trace.Cut{9, 9}}
	if m := stale.Merge(next); m.Epoch != 2 || m.Applied != 12 || !m.Cut.Equal(next.Cut) {
		t.Fatalf("stale high-applied token leaked through merge: %+v", m)
	}
}

func TestSession(t *testing.T) {
	var s SessionState
	if !s.Token().Zero() {
		t.Fatal("new session should hold the zero token")
	}
	s.Observe(Token{Applied: 5, Cut: trace.Cut{1}})
	s.Observe(Token{Applied: 3, Cut: trace.Cut{2}})
	got := s.Token()
	if got.Applied != 5 || !got.Cut.Equal(trace.Cut{2}) {
		t.Fatalf("session token = %+v", got)
	}
	s.Reset()
	if !s.Token().Zero() {
		t.Fatal("reset session should hold the zero token")
	}
}

func TestSessionAdoptsFirstTokensGroup(t *testing.T) {
	// Regression: a fresh session merged its first token into the zero
	// token, whose Group (0) survived the equal-epoch merge, so every
	// later session read to group g >= 1 was refused as a group-0 token.
	for _, epoch := range []uint64{0, 3} {
		var s SessionState
		s.Observe(Token{Group: 2, Epoch: epoch, Applied: 5, Cut: trace.Cut{1, 4}})
		got := s.Token()
		if got.Group != 2 || got.Epoch != epoch || got.Applied != 5 || !got.Cut.Equal(trace.Cut{1, 4}) {
			t.Fatalf("epoch %d: session token = %+v, want group 2's token", epoch, got)
		}
		s.Observe(Token{Group: 2, Epoch: epoch, Applied: 7, Cut: trace.Cut{2, 4}})
		if got := s.Token(); got.Group != 2 || got.Applied != 7 {
			t.Fatalf("epoch %d: second observation lost the group: %+v", epoch, got)
		}
	}
}
