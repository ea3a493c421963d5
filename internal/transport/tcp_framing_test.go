package transport

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"rex/internal/alloctest"
	"rex/internal/env"
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

// setBodyTimeout shortens frameBodyTimeout for one test.
func setBodyTimeout(t *testing.T, d time.Duration) {
	old := frameBodyTimeout
	frameBodyTimeout = d
	t.Cleanup(func() { frameBodyTimeout = old })
}

type testFrame struct {
	from    int
	payload []byte
}

// TestReadFrameShapes feeds peer frames through a pipe in awkward shapes:
// all in one segment, one byte per write, and a frame larger than the read
// buffer. Each must come out whole, in order, with its sender.
func TestReadFrameShapes(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 9000) // 144 kB: past the 4 kB buffer and wire.ReadAhead
	cases := []struct {
		name   string
		frames []testFrame
		write  func(c net.Conn, stream []byte)
	}{
		{"several frames in one segment", []testFrame{{1, []byte("a")}, {2, nil}, {1, []byte("third frame")}},
			func(c net.Conn, stream []byte) { c.Write(stream) }},
		{"split byte by byte", []testFrame{{2, []byte("split")}, {0, []byte("me")}},
			func(c net.Conn, stream []byte) {
				for i := range stream {
					c.Write(stream[i : i+1])
				}
			}},
		{"larger than the read buffer", []testFrame{{1, big}, {1, []byte("after")}},
			func(c net.Conn, stream []byte) { c.Write(stream) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			var stream []byte
			for _, f := range tc.frames {
				stream = append(stream, appendFrame(nil, f.from, f.payload)...)
			}
			go tc.write(a, stream)
			cc := &countingConn{Conn: b}
			fr := frameReader{br: bufio.NewReader(cc), conn: cc}
			for i, want := range tc.frames {
				d, err := fr.next()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if d.From != want.from || !bytes.Equal(d.Payload, want.payload) {
					t.Fatalf("frame %d: %d bytes from %d, want %d from %d", i, len(d.Payload), d.From, len(want.payload), want.from)
				}
				if d.Lent != (len(want.payload) <= fr.br.Size()) {
					t.Errorf("frame %d of %d bytes: lent = %v", i, len(want.payload), d.Lent)
				}
			}
			if tc.name == "several frames in one segment" && cc.reads.Load() != 1 {
				t.Errorf("%d reads for one segment, want 1", cc.reads.Load())
			}
		})
	}
}

// TestReadFrameBodyTimeout: a peer that stalls after a header fails after
// frameBodyTimeout, while idling between frames is never timed out.
func TestReadFrameBodyTimeout(t *testing.T) {
	setBodyTimeout(t, 100*time.Millisecond)
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		a.Write(appendFrame(nil, 1, []byte("first")))
		time.Sleep(300 * time.Millisecond) // idle between frames: allowed
		a.Write(appendFrame(nil, 1, []byte("second")))
		a.Write(append(appendFrameHeader(nil, 1, 100), 1, 2, 3)) // 3 of 100 bytes, then stall
	}()
	fr := frameReader{br: bufio.NewReader(b), conn: b}
	for _, want := range []string{"first", "second"} {
		d, err := fr.next()
		if err != nil || string(d.Payload) != want {
			t.Fatalf("next = %q, %v; want %q", d.Payload, err, want)
		}
	}
	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		_, err := fr.next()
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

// TestTCPStalledPeerDisconnected: an endpoint drops an inbound connection
// whose frame stalls after the header, and still delivers the frames that
// arrived whole in the same segment before it.
func TestTCPStalledPeerDisconnected(t *testing.T) {
	setBodyTimeout(t, 100*time.Millisecond)
	eps := listenLocal(t, 1)
	defer eps[0].Close()
	c, err := net.Dial("tcp", eps[0].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var seg []byte
	seg = appendFrame(seg, 1, []byte("one"))
	seg = append(seg, appendFrame(nil, 2, []byte("two"))...)
	seg = append(seg, appendFrameHeader(nil, 1, 1000)...)
	if _, err := c.Write(seg); err != nil {
		t.Fatal(err)
	}
	q := collect(env.NewReal(), eps[0])
	for _, want := range []string{"one", "two"} {
		got, _, ok := q.Recv()
		if !ok || string(got) != want {
			t.Fatalf("Recv = %q, %v; want %q", got, ok, want)
		}
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("stalled connection: read err = %v, want EOF (closed by the endpoint)", err)
	}
}

// TestTCPSmallSendOneWrite pins the sending side: a staged frame leaves in
// exactly one Write.
func TestTCPSmallSendOneWrite(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go io.Copy(io.Discard, b)
	cc := &countingConn{Conn: a}
	var p tcpPeer
	for i := 1; i <= 3; i++ {
		if err := p.writeFrame(cc, 0, bytes.Repeat([]byte{byte(i)}, 100*i)); err != nil {
			t.Fatal(err)
		}
		if n := cc.writes.Load(); n != int64(i) {
			t.Fatalf("%d writes after %d frames", n, i)
		}
	}
}

// TestReadFrameAllocBoundedByInput pins the length-prefix probes: a
// header announcing up to 64 MB must cost a bounded multiple of the bytes
// that actually arrived, not what it announces.
func TestReadFrameAllocBoundedByInput(t *testing.T) {
	for _, c := range []struct {
		name   string
		probe  []byte
		frames int // complete frames ahead of the truncated one
		max    uint64
	}{
		{"64 MB announced, header only", []byte{0x03, 0xff, 0xff, 0xff, 0, 0, 0, 0}, 0, 128 << 10},
		{"64 MB announced, 3 payload bytes", []byte{0x04, 0x00, 0x00, 0x00, 0, 0, 0, 1, 1, 2, 3}, 0, 128 << 10},
		{"1 MB announced, header only", []byte{0x00, 0x10, 0x00, 0x00, 0, 0, 0, 2}, 0, 128 << 10},
		{"2 MB announced, 200 kB sent", append([]byte{0x00, 0x20, 0x00, 0x00, 0, 0, 0, 1}, make([]byte, 200<<10)...), 0, alloctest.MaxFrameRead(200<<10 + 8)},
		{"a 200 kB frame, then 64 MB announced, header only", append(appendFrame(nil, 1, make([]byte, 200<<10)), 0x03, 0xff, 0xff, 0xff, 0, 0, 0, 0), 1, alloctest.MaxFrameRead(200<<10 + 16)},
	} {
		got := alloctest.MinBytes(c.max, func() {
			fr := frameReader{br: bufio.NewReader(bytes.NewReader(c.probe))}
			frames := 0
			for {
				if _, err := fr.next(); err != nil {
					break
				}
				frames++
			}
			if frames != c.frames {
				t.Errorf("%s: read %d frames, want %d (the truncated payload is never one)", c.name, frames, c.frames)
			}
		})
		if got > c.max {
			t.Errorf("%s: allocated %d bytes, want at most %d", c.name, got, c.max)
		}
	}
}

func FuzzTCPReadFrame(f *testing.F) {
	f.Add(appendFrame(nil, 2, []byte{0x01, 0x02}))
	f.Add(append(appendFrame(nil, 1, nil), appendFrame(nil, 0, []byte("x"))...))
	f.Add([]byte{0x03, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{0x04, 0x00, 0x00, 0x01, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		readAll := func(keep func(testFrame)) {
			fr := frameReader{br: bufio.NewReader(bytes.NewReader(data))}
			for {
				d, err := fr.next()
				if err != nil {
					return
				}
				keep(testFrame{d.From, d.Payload})
			}
		}
		if got := alloctest.MinBytes(alloctest.MaxFrameRead(len(data)), func() { readAll(func(testFrame) {}) }); got > alloctest.MaxFrameRead(len(data)) {
			t.Fatalf("reading %d bytes allocated %d", len(data), got)
		}
		// Every frame read re-frames to the bytes it came from.
		var again []byte
		readAll(func(f testFrame) { again = append(again, appendFrame(nil, f.from, f.payload)...) })
		if !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("frames do not round-trip")
		}
	})
}
