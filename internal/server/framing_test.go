package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"rex/internal/alloctest"
	"rex/internal/core"
	"rex/internal/readpath"
)

// countingConn counts the Reads and Writes that reach the wrapped conn.
type countingConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// readerConn is a net.Conn over a plain reader (fuzz input): reads come
// from r, writes go to w, deadlines are no-ops.
type readerConn struct {
	net.Conn
	r io.Reader
	w bytes.Buffer
}

func (c *readerConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *readerConn) Write(p []byte) (int, error)      { return c.w.Write(p) }
func (c *readerConn) SetReadDeadline(time.Time) error  { return nil }
func (c *readerConn) SetWriteDeadline(time.Time) error { return nil }
func (c *readerConn) Close() error                     { return nil }

// newReaderFrameConn is a frameConn reading data.
func newReaderFrameConn(data []byte) (*frameConn, *readerConn) {
	rc := &readerConn{r: bytes.NewReader(data)}
	return newFrameConn(rc), rc
}

// frameOf is a client-protocol frame: the length prefix, then b.
func frameOf(b []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(b))), b...)
}

// setBodyTimeout shortens frameBodyTimeout for one test.
func setBodyTimeout(t *testing.T, d time.Duration) {
	old := frameBodyTimeout
	frameBodyTimeout = d
	t.Cleanup(func() { frameBodyTimeout = old })
}

// TestFrameConnFraming feeds frames through a pipe in awkward shapes: all
// in one segment, one byte per write, and a frame larger than the read
// buffer. Each must come out whole and in order.
func TestFrameConnFraming(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 9000) // 144 kB: past the 4 kB buffer and wire.ReadAhead
	cases := []struct {
		name   string
		frames [][]byte
		write  func(c net.Conn, stream []byte)
	}{
		{"several frames in one segment", [][]byte{[]byte("a"), {}, []byte("third frame")},
			func(c net.Conn, stream []byte) { c.Write(stream) }},
		{"split byte by byte", [][]byte{[]byte("split"), []byte("me")},
			func(c net.Conn, stream []byte) {
				for i := range stream {
					c.Write(stream[i : i+1])
				}
			}},
		{"larger than the read buffer", [][]byte{big, []byte("after")},
			func(c net.Conn, stream []byte) { c.Write(stream) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client, srv := net.Pipe()
			defer client.Close()
			defer srv.Close()
			var stream []byte
			for _, f := range tc.frames {
				stream = append(stream, frameOf(f)...)
			}
			go tc.write(client, stream)
			cc := &countingConn{Conn: srv}
			fc := newFrameConn(cc)
			for i, want := range tc.frames {
				got, err := fc.readFrame(time.Now().Add(5 * time.Second))
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
				}
			}
			if tc.name == "several frames in one segment" && cc.reads.Load() != 1 {
				t.Errorf("%d reads for one segment, want 1", cc.reads.Load())
			}
		})
	}
}

// TestFrameConnBodyTimeout: a peer that stalls after a header fails after
// frameBodyTimeout, while idling between frames is never timed out.
func TestFrameConnBodyTimeout(t *testing.T) {
	setBodyTimeout(t, 100*time.Millisecond)
	client, srv := net.Pipe()
	defer client.Close()
	defer srv.Close()
	fc := newFrameConn(srv)
	go func() {
		client.Write(frameOf([]byte("first")))
		time.Sleep(300 * time.Millisecond) // idle between frames: allowed
		client.Write(frameOf([]byte("second")))
		client.Write([]byte{0, 0, 0, 100, 1, 2, 3}) // header, 3 of 100 bytes, stall
	}()
	for _, want := range []string{"first", "second"} {
		got, err := fc.readFrame(time.Time{})
		if err != nil || string(got) != want {
			t.Fatalf("readFrame = %q, %v; want %q", got, err, want)
		}
	}
	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		_, err := fc.readFrame(time.Time{})
		errc <- err
	}()
	var err error
	select {
	case err = <-errc:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled body: still reading after 5 s")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled body: err = %v, want a deadline error", err)
	}
	if waited := time.Since(start); waited < 90*time.Millisecond || waited > 3*time.Second {
		t.Errorf("stalled body failed after %v, want about %v", waited, frameBodyTimeout)
	}
}

// TestClientRequestOneWrite pins the client side of the protocol: every
// request leaves in exactly one Write, including one larger than the
// buffer the transport keeps, which it then drops.
func TestClientRequestOneWrite(t *testing.T) {
	client, srv := net.Pipe()
	defer client.Close()
	defer srv.Close()
	ok := tokenResp(readpath.Token{}, []byte{1})
	go func() {
		fc := newFrameConn(srv)
		for {
			if _, err := fc.readFrame(time.Time{}); err != nil {
				return
			}
			fc.writeReply(StatusOK, ok)
		}
	}()
	tr := &tcpTransport{addrs: []string{"pipe"}, conns: make(map[int]*frameConn)}
	cc := &countingConn{Conn: client}
	tr.conns[0] = newFrameConn(cc)
	large := make([]byte, 2*maxKeptWbuf)
	calls := []struct {
		name string
		call func() error
	}{
		{"submit", func() error { _, _, err := tr.Submit(0, 1, 1, []byte("put"), time.Second); return err }},
		{"query", func() error { _, err := tr.Query(0, []byte("get"), time.Second); return err }},
		{"leveled query", func() error {
			_, _, err := tr.QueryLevel(0, readpath.Linearizable, readpath.Token{}, []byte("get"), time.Second)
			return err
		}},
		{"large submit", func() error { _, _, err := tr.Submit(0, 1, 2, large, time.Second); return err }},
		{"submit after a large one", func() error { _, _, err := tr.Submit(0, 1, 3, []byte("put"), time.Second); return err }},
	}
	for _, c := range calls {
		before := cc.writes.Load()
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := cc.writes.Load() - before; n != 1 {
			t.Errorf("%s: %d writes, want 1", c.name, n)
		}
		if cap(tr.wbuf) > maxKeptWbuf {
			t.Errorf("%s: transport keeps a %d-byte buffer, want at most %d", c.name, cap(tr.wbuf), maxKeptWbuf)
		}
	}
}

// TestServerReplyOneWrite pins the server side: every reply, including
// the oversized-frame refusal, leaves in exactly one Write.
func TestServerReplyOneWrite(t *testing.T) {
	client, srv := net.Pipe()
	defer client.Close()
	s := &Server{replicas: map[int]*core.Replica{}, conns: make(map[net.Conn]struct{}), inflight: make(map[int]int)}
	cc := &countingConn{Conn: srv}
	s.wg.Add(1)
	go s.serveConn(cc)
	defer s.wg.Wait()
	fc := newFrameConn(client)
	for i := 1; i <= 3; i++ {
		client.Write(frameOf(appendRequest(nil, wireRequest{kind: KindStatus, group: 7})))
		resp, err := fc.readFrame(time.Now().Add(5 * time.Second))
		if err != nil || len(resp) == 0 || resp[0] != StatusFailed {
			t.Fatalf("reply %d = %q, %v; want StatusFailed", i, resp, err)
		}
		if n := cc.writes.Load(); n != int64(i) {
			t.Fatalf("%d writes after %d replies", n, i)
		}
	}
	client.Write(binary.BigEndian.AppendUint32(nil, maxFrame+1))
	if resp, err := fc.readFrame(time.Now().Add(5 * time.Second)); err != nil || resp[0] != StatusError {
		t.Fatalf("oversized frame: reply %q, %v; want StatusError", resp, err)
	}
	if n := cc.writes.Load(); n != 4 {
		t.Errorf("%d writes after 4 replies", n)
	}
	client.Close()
}

// TestReadFrameAllocBoundedByInput pins the length-prefix probes: a
// header announcing up to 64 MB must cost a bounded multiple of the bytes
// that actually arrived, not what it announces.
func TestReadFrameAllocBoundedByInput(t *testing.T) {
	for _, c := range []struct {
		name  string
		probe []byte
		max   uint64
	}{
		{"64 MB announced, header only", []byte{0x03, 0xff, 0xff, 0xff}, 128 << 10},
		{"64 MB announced, 3 body bytes", []byte{0x03, 0xff, 0xff, 0xff, KindSubmitToken, 0, 1}, 128 << 10},
		{"1 MB announced, header only", []byte{0x00, 0x10, 0x00, 0x00}, 128 << 10},
		{"2 MB announced, 200 kB sent", append([]byte{0x00, 0x20, 0x00, 0x00}, make([]byte, 200<<10)...), alloctest.MaxFrameRead(200<<10 + 4)},
	} {
		got := alloctest.MinBytes(c.max, func() {
			fc, _ := newReaderFrameConn(c.probe)
			if _, err := fc.readFrame(time.Time{}); err == nil {
				t.Errorf("%s: read a frame from a truncated body", c.name)
			}
		})
		if got > c.max {
			t.Errorf("%s: allocated %d bytes, want at most %d", c.name, got, c.max)
		}
	}
}

func FuzzServerReadFrame(f *testing.F) {
	f.Add(frameOf(appendRequest(nil, wireRequest{kind: KindSubmitToken, client: 1, seq: 2, body: []byte("x"), budget: time.Second})))
	f.Add(append(frameOf([]byte{StatusOK, 1, 2}), frameOf(nil)...))
	f.Add([]byte{0x03, 0xff, 0xff, 0xff})
	f.Add([]byte{0x04, 0x00, 0x00, 0x01})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		readAll := func(keep func([]byte)) {
			fc, _ := newReaderFrameConn(data)
			for {
				frame, err := fc.readFrame(time.Time{})
				if err != nil {
					return
				}
				keep(frame)
			}
		}
		if got := alloctest.MinBytes(alloctest.MaxFrameRead(len(data)), func() { readAll(func([]byte) {}) }); got > alloctest.MaxFrameRead(len(data)) {
			t.Fatalf("reading %d bytes allocated %d", len(data), got)
		}
		var frames [][]byte
		readAll(func(f []byte) { frames = append(frames, f) })
		// Every frame read re-frames to the bytes it came from, through
		// both the request and the reply encoders.
		var again []byte
		fc, rc := newReaderFrameConn(nil)
		for _, frame := range frames {
			again = append(again, frameOf(frame)...)
			if len(frame) > 0 {
				fc.writeReply(frame[0], frame[1:])
			} else {
				rc.w.Write(frameOf(nil))
			}
		}
		if !bytes.Equal(again, data[:len(again)]) || !bytes.Equal(rc.w.Bytes(), again) {
			t.Fatalf("frames do not round-trip")
		}
	})
}

func FuzzDecodeRequest(f *testing.F) {
	f.Add(appendRequest(nil, wireRequest{kind: KindSubmitToken, group: 3, client: 1, seq: 2, body: []byte("x"), budget: 1500 * time.Millisecond}))
	f.Add(appendRequest(nil, wireRequest{kind: KindQuery, body: []byte("get")}))
	f.Add([]byte{KindSubmitToken, 0, 0, 0, 0x80, 0x80, 0x40})
	f.Add([]byte{KindSubmitToken, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var req wireRequest
		var err error
		if got := alloctest.MinBytes(1024+uint64(len(data)), func() { req, err = decodeRequest(data) }); got > 1024+uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		again, err := decodeRequest(appendRequest(nil, req))
		if err != nil {
			t.Fatalf("re-decoding a valid request: %v", err)
		}
		if again.kind != req.kind || again.group != req.group || again.client != req.client ||
			again.seq != req.seq || again.budget != req.budget || !bytes.Equal(again.body, req.body) {
			t.Fatalf("request does not round-trip: %+v vs %+v", req, again)
		}
	})
}
