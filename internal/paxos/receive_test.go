package paxos

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"rex/internal/env"
	"rex/internal/transport"
	"rex/internal/wire"
)

// tcpPeers starts n loopback endpoints that know each other's addresses.
func tcpPeers(t *testing.T, n int) []*transport.TCPEndpoint {
	t.Helper()
	eps := make([]*transport.TCPEndpoint, n)
	for i := range eps {
		addrs := make([]string, n)
		addrs[i] = "127.0.0.1:0"
		ep, err := transport.ListenTCP(i, addrs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ep.Close)
		eps[i] = ep
	}
	for i, ep := range eps {
		for j, peer := range eps {
			if i != j {
				ep.SetPeer(j, peer.Addr().String())
			}
		}
	}
	return eps
}

// receivingNode returns a node attached to ep whose event loop does not
// run: the test takes what the endpoint's readers queue off its inbox.
func receivingNode(t *testing.T, ep transport.Endpoint, n int) *Node {
	t.Helper()
	e := env.NewReal()
	node, err := NewNode(Config{
		ID: ep.ID(), N: n, Env: e, Endpoint: ep, Log: memLog(e),
		HeartbeatEvery: time.Second, ElectionTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ep.Attach(node.receive)
	return node
}

// frame encodes m.
func frame(m *message) []byte {
	e := wire.NewEncoder(nil)
	m.encodeTo(e)
	return e.Bytes()
}

// TestConcurrentReadersDeliverIntoOneNode has two peers' read loops
// deliver into one node at once. Every frame is lent from its
// connection's read buffer, which the next frame overwrites, so a value
// that aliased the buffer would come out corrupted; each must arrive
// intact, in its sender's order.
func TestConcurrentReadersDeliverIntoOneNode(t *testing.T) {
	eps := tcpPeers(t, 3)
	node := receivingNode(t, eps[1], 3)
	const perSender = 300
	var wg sync.WaitGroup
	for _, from := range []int{0, 2} {
		wg.Add(1)
		go func(from int) {
			defer wg.Done()
			val := bytes.Repeat([]byte{byte('a' + from)}, 700)
			for i := 0; i < perSender; i++ {
				eps[from].Send(1, frame(&message{Kind: mAccept, Ballot: Ballot{1, 0}, Inst: uint64(i), Val: val}))
			}
		}(from)
	}
	next := map[int]uint64{}
	deadline := time.After(10 * time.Second)
	for got := 0; got < 2*perSender; got++ {
		ch := make(chan any, 1)
		go func() { v, _ := node.inbox.Recv(); ch <- v }()
		var v any
		select {
		case v = <-ch:
		case <-deadline:
			t.Fatalf("received %d of %d messages", got, 2*perSender)
		}
		m := v.(*message)
		if m.Kind != mAccept || m.Inst != next[m.from] {
			t.Fatalf("from %d: %v instance %d, want accept %d", m.from, m.Kind, m.Inst, next[m.from])
		}
		next[m.from]++
		if !bytes.Equal(m.Val, bytes.Repeat([]byte{byte('a' + m.from)}, 700)) {
			t.Fatalf("from %d instance %d: value corrupted", m.from, m.Inst)
		}
		node.msgs.put(m)
	}
	wg.Wait()
}
