//go:build !race

package transport

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"
)

// TestTCPLargeSendNotStaged pins the large-frame path of a mux channel
// over TCPEndpoint: a 1 MB payload goes out without a payload-sized copy
// (no mux tag framing, no staging in the peer's write buffer), and the
// write buffer stays small afterwards.
func TestTCPLargeSendNotStaged(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The reader allocates nothing once the first frame is in, so from
	// then on the process's allocations are the sender's.
	const first, total = 8 + 1, 8 + 1 + 8 + 1<<20
	buf := make([]byte, 64<<10)
	warm, received := make(chan struct{}), make(chan int, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(warm)
			return
		}
		defer c.Close()
		got := 0
		for got < total {
			n, err := c.Read(buf)
			if got < first && got+n >= first {
				close(warm)
			}
			got += n
			if err != nil {
				break
			}
		}
		received <- got
		io.Copy(io.Discard, c)
	}()
	ep, err := ListenTCP(0, []string{"127.0.0.1:0", ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	mux := NewMux(ep, 0, 0x80)
	ch := mux.Channel(1)
	ch.Send(1, []byte{0x81}) // dial outside the measurement
	<-warm
	payload := make([]byte, 1<<20)
	payload[0] = 0x81
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ch.Send(1, payload)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("a 1 MB send allocated %d bytes, want < 64 kB", got)
	}
	if got := <-received; got != total {
		t.Errorf("peer received %d bytes, want both frames (%d)", got, total)
	}
	if c := cap(ep.peers[1].wbuf); c > 64<<10 {
		t.Errorf("peer write buffer holds %d bytes after a 1 MB send, want ≤ 64 kB", c)
	}
}

// TestReadFrameRepeatSizeOneAlloc pins the receive side of repeated large
// frames such as checkpoint pushes: once a connection has delivered one,
// a next one of the same size, or up to twice it, is read into a single
// allocation rather than grown from wire.ReadAhead.
func TestReadFrameRepeatSizeOneAlloc(t *testing.T) {
	const size = 810 << 10
	var stream []byte
	for _, n := range []int{size, size, size, size, 2 * size, 2 * size} {
		stream = append(stream, appendFrame(nil, 1, make([]byte, n))...)
	}
	fr := frameReader{br: bufio.NewReader(bytes.NewReader(stream))}
	read := func(largest, want int) {
		fr.largest = largest
		d, err := fr.next()
		if err != nil || len(d.Payload) != want {
			t.Fatalf("next: %d bytes, %v; want %d", len(d.Payload), err, want)
		}
	}
	// AllocsPerRun(1, f) runs f twice: a warm-up and the measured run.
	if got := testing.AllocsPerRun(1, func() { read(0, size) }); got < 2 {
		t.Errorf("a first frame of %d bytes: %v allocations, want it grown in steps", size, got)
	}
	if got := testing.AllocsPerRun(1, func() { read(size, size) }); got != 1 {
		t.Errorf("a repeat frame of %d bytes: %v allocations, want 1", size, got)
	}
	if got := testing.AllocsPerRun(1, func() { read(size, 2*size) }); got != 1 {
		t.Errorf("a frame of %d bytes after %d: %v allocations, want 1", 2*size, size, got)
	}
}
