//go:build !race

package server

import (
	"context"
	"net"
	"testing"
	"time"

	"rex/internal/readpath"
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
	ok := tokenResp(readpath.Token{}, []byte{1})
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
