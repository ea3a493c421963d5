//go:build !race

package server

import (
	"context"
	"net"
	"testing"
	"time"

	"rex/internal/alloctest"
	"rex/internal/readpath"
	"rex/internal/trace"
)

// TestClientSuccessPathAllocs pins the TCP client's allocations per
// successful call against a canned server that answers every frame OK:
// the retry loop must add nothing (no per-call closures, contexts or
// encoders) to the framing and decoding the call needs anyway. The
// counts include the canned server's own frame read and write.
func TestClientSuccessPathAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ok := tokenResp(nil, readpath.Token{}, []byte{1})
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		fc := newFrameConn(c)
		for {
			if _, err := fc.readFrame(time.Time{}); err != nil {
				return
			}
			fc.writeReply(StatusOK, ok)
		}
	}()
	cl := NewClient(1, []string{ln.Addr().String()})
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	body := []byte("hello")
	if _, err := cl.DoCtx(ctx, body); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		max  float64
		call func()
	}{
		{"DoCtx", 8, func() { cl.DoCtx(ctx, body) }},
		{"QueryLevelCtx", 11, func() { cl.QueryLevelCtx(ctx, readpath.Linearizable, body) }},
	} {
		if got := testing.AllocsPerRun(1000, c.call); got > c.max {
			t.Errorf("%s: %v allocations per call, want at most %v", c.name, got, c.max)
		}
	}
}

// TestTokenReplyReusesStorage pins both ends of a token-carrying answer
// once warm: the server encodes it into its connection's reply buffer,
// the client decodes the token into its transport's scratch and observes
// it into the session's own cut. None of it allocates.
func TestTokenReplyReusesStorage(t *testing.T) {
	tok := readpath.Token{Group: 1, Epoch: 3, Applied: 9000, Cut: trace.Cut{700, 650, 0, 12, 9}}
	resp := []byte("ok")
	var sc connScratch
	tr := &tcpTransport{}
	var sess readpath.SessionState
	roundTrip := func() {
		sc.reply = tokenResp(sc.reply[:0], tok, resp)
		got, out, err := tr.decodeTokenResp(sc.reply)
		if err != nil || string(got) != "ok" {
			t.Fatalf("decodeTokenResp = %q, %v", got, err)
		}
		sess.Observe(out)
		tok.Applied++
		tok.Cut[0]++
	}
	roundTrip()
	if got := alloctest.MinBytes(0, roundTrip); got != 0 {
		t.Errorf("token reply round trip allocated %d bytes, want 0", got)
	}
	if got := sess.Token(); got.Applied != tok.Applied-1 || got.Cut[0] != tok.Cut[0]-1 {
		t.Errorf("session token %+v is not the last one observed", got)
	}
}
