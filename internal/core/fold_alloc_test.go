//go:build !race

package core

import (
	"testing"

	"rex/internal/alloctest"
	"rex/internal/readpath"
	"rex/internal/trace"
	"rex/internal/trace/tracetest"
)

// foldAll decodes each value into d and folds it into p.
func foldAll(t *testing.T, p *primaryState, d *trace.Delta, vals [][]byte) {
	for _, v := range vals {
		if err := d.DecodeFrom(v); err != nil {
			t.Fatal(err)
		}
		if err := p.fold(d); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFoldReusesStorage pins the primary's fold per committed delta once
// warm, with a session token taken after each, as every released write
// takes one: Apply, the next last consistent cut and Forget below it.
// Dropped chunks and request arrays come back from the trace's spare
// lists, so what is left is the new cut, which tokens may share, and each
// new chunk's fresh edge buffer, which the trace keeps: at most twice the
// stored edges' 8 bytes each.
func TestFoldReusesStorage(t *testing.T) {
	const threads = 4
	p := &primaryState{tr: trace.New(threads), lcc: make(trace.Cut, threads)}
	r := &Replica{prim: p}
	var d trace.Delta
	foldAndToken := func(vals [][]byte) {
		for i := range vals {
			foldAll(t, p, &d, vals[i:i+1])
			r.tokenLocked()
		}
	}
	warm, _ := tracetest.PutDeltas(p.tr, 4096, 1)
	foldAndToken(warm)
	vals, edges := tracetest.PutDeltas(p.tr, 4096, 1)
	cutBytes := uint64(4*threads+15) &^ 15
	limit := uint64(16*edges) + uint64(len(vals))*cutBytes
	if got := alloctest.Bytes(func() { foldAndToken(vals) }); got > limit {
		t.Errorf("%d deltas allocated %d bytes (%.1f per delta), want at most %d for %d stored edges and a cut each",
			len(vals), got, float64(got)/float64(len(vals)), limit, edges)
	}
}

// TestSessionTokenRoundTripAllocs pins a write's session token from the
// primary to the client's session: tokenLocked shares the committed cut,
// the token is encoded, decoded into the reader's scratch and observed
// into the session's own cut. The encoding is the one allocation. The
// next fold replaces the shared cut instead of writing into it.
func TestSessionTokenRoundTripAllocs(t *testing.T) {
	const threads = 4
	p := &primaryState{tr: trace.New(threads), lcc: make(trace.Cut, threads)}
	r := &Replica{prim: p}
	var d trace.Delta
	warm, _ := tracetest.PutDeltas(p.tr, 64, 1)
	foldAll(t, p, &d, warm)
	var sess readpath.SessionState
	var scratch trace.Cut
	var encoded int
	roundTrip := func() {
		b := r.tokenLocked().EncodeBytes()
		tok, err := readpath.DecodeTokenBytes(b, scratch)
		if err != nil {
			t.Fatal(err)
		}
		scratch = tok.Cut
		sess.Observe(tok)
		encoded = len(b)
	}
	roundTrip()
	roundTrip()
	if got, limit := alloctest.MinBytes(16, roundTrip), uint64(encoded+15)&^15; got > limit {
		t.Errorf("token round trip allocated %d bytes, want at most %d for a %d-byte token", got, limit, encoded)
	}
	held := r.tokenLocked().Cut
	want := held.Clone()
	next, _ := tracetest.PutDeltas(p.tr, 1, 1)
	foldAll(t, p, &d, next)
	if !held.Equal(want) || p.lcc.Equal(want) {
		t.Errorf("fold wrote into a token's cut (held %v, was %v, lcc %v)", held, want, p.lcc)
	}
	if !sess.Token().Cut.Equal(want) {
		t.Errorf("session cut %v, want %v", sess.Token().Cut, want)
	}
}
