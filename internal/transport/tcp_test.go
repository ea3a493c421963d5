package transport

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rex/internal/env"
	"rex/internal/obs"
)

// listenLocal starts n endpoints on loopback with OS-assigned ports. The
// trick: bind placeholder listeners first to learn free ports, then start
// the real endpoints on those addresses.
func listenLocal(t *testing.T, n int) []*TCPEndpoint {
	t.Helper()
	lns := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	eps := make([]*TCPEndpoint, n)
	for i := range eps {
		lns[i].Close()
		ep, err := ListenTCP(i, addrs)
		if err != nil {
			t.Fatalf("ListenTCP(%d): %v", i, err)
		}
		eps[i] = ep
	}
	return eps
}

func TestTCPRoundTrip(t *testing.T) {
	eps := listenLocal(t, 2)
	defer eps[0].Close()
	defer eps[1].Close()

	deadline := time.Now().Add(5 * time.Second)
	got := make(chan string, 1)
	q := collect(env.NewReal(), eps[1])
	go func() {
		payload, from, ok := q.Recv()
		if ok {
			got <- fmt.Sprintf("%s/%d", payload, from)
		} else {
			got <- "closed"
		}
	}()
	// The first sends may race the listener goroutine; retry until the
	// frame lands.
	for {
		eps[0].Send(1, []byte("hello"))
		select {
		case s := <-got:
			if s != "hello/0" {
				t.Fatalf("got %q, want hello/0", s)
			}
			return
		case <-time.After(50 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("timed out waiting for round trip")
			}
		}
	}
}

func TestTCPSelfSend(t *testing.T) {
	eps := listenLocal(t, 1)
	defer eps[0].Close()
	q := collect(env.NewReal(), eps[0])
	eps[0].Send(0, []byte("loop"))
	payload, from, ok := q.Recv()
	if !ok || string(payload) != "loop" || from != 0 {
		t.Fatalf("self-send got (%q, %d, %v)", payload, from, ok)
	}
}

// TestTCPCloseTorture hammers Send (remote + self), delivery, and Close
// concurrently. Close must be idempotent and race-free, and no handler
// may run once it has returned.
func TestTCPCloseTorture(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		eps := listenLocal(t, 3)
		var wg sync.WaitGroup

		// Every endpoint reads what it is sent until close.
		var closed [3]atomic.Bool
		for i, ep := range eps {
			i := i
			ep.Attach(func(d Delivery) {
				if closed[i].Load() {
					t.Error("handler ran after Close returned")
				}
			})
		}
		// Senders: each endpoint blasts all peers and itself.
		stop := make(chan struct{})
		for _, ep := range eps {
			for to := 0; to < 3; to++ {
				wg.Add(1)
				go func(ep *TCPEndpoint, to int) {
					defer wg.Done()
					payload := []byte("torture")
					for {
						select {
						case <-stop:
							return
						default:
							ep.Send(to, payload)
						}
					}
				}(ep, to)
			}
		}
		// Let traffic flow, then close everything while sends are in
		// flight. Close must be idempotent and race-free.
		time.Sleep(5 * time.Millisecond)
		var cwg sync.WaitGroup
		for i, ep := range eps {
			cwg.Add(1)
			go func(i int, ep *TCPEndpoint) {
				defer cwg.Done()
				ep.Close()
				ep.Close() // second close is a no-op
				closed[i].Store(true)
			}(i, ep)
		}
		cwg.Wait()
		close(stop)
		wg.Wait()
	}
}

// TestTCPSlowPeerDoesNotBlockOthers pins the head-of-line fix: with one
// peer address unreachable (dial hangs/fails), sends to a healthy peer
// must still go through promptly.
func TestTCPSlowPeerDoesNotBlockOthers(t *testing.T) {
	// Three slots: 0 and 1 live, 2 is a dead address nothing listens on.
	lns := make([]net.Listener, 3)
	addrs := make([]string, 3)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	lns[2].Close() // peer 2 stays dead
	var eps [2]*TCPEndpoint
	for i := 0; i < 2; i++ {
		lns[i].Close()
		ep, err := ListenTCP(i, addrs)
		if err != nil {
			t.Fatalf("ListenTCP(%d): %v", i, err)
		}
		eps[i] = ep
	}
	ep := eps[0]
	defer eps[0].Close()
	defer eps[1].Close()

	// Keep hammering the dead peer from background goroutines.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					ep.Send(2, []byte("void"))
				}
			}
		}()
	}

	// Sends to the live peer must complete quickly despite the stalled
	// dials to peer 2.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			ep.Send(1, []byte("alive"))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("sends to healthy peer blocked behind dead peer")
	}
	close(stop)
	wg.Wait()
}

func TestTCPMetricsRegistration(t *testing.T) {
	eps := listenLocal(t, 2)
	defer eps[1].Close()
	reg := obs.NewRegistry()
	eps[0].RegisterMetrics(reg)
	eps[0].Send(1, []byte("count-me"))
	eps[0].Close()

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		"tcp_frames_out_total", "tcp_bytes_out_total", "tcp_drops_total",
		"tcp_frames_in_total", "tcp_inbox_depth",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("metrics dump missing %s\n---\n%s", name, out)
		}
	}
	s := reg.Snapshot()
	if s.Counter("tcp_frames_out_total")+s.Counter("tcp_drops_total") == 0 {
		t.Error("send recorded neither a frame nor a drop")
	}
}
