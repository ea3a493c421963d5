//go:build !race

package paxos

import (
	"testing"
)

// TestReceivePathAllocs pins a received frame's cost from the socket to
// the event loop, over a loopback TCPEndpoint pair: the reader lends the
// frame, the node decodes it into a message from its free list and the
// inbox carries the pointer, so an Accepted, a CommitRef or a heartbeat
// allocates nothing before handleMessage, and an Accept exactly the copy
// of its value. Each run sends one frame and takes the message off the
// inbox, where the event loop would pick it up.
func TestReceivePathAllocs(t *testing.T) {
	eps := tcpPeers(t, 2)
	node := receivingNode(t, eps[1], 2)
	for _, c := range []struct {
		m    *message
		want float64
	}{
		{&message{Kind: mAccepted, Ballot: Ballot{3, 0}, Inst: 1 << 20}, 0},
		{&message{Kind: mCommitRef, Ballot: Ballot{3, 0}, Inst: 1 << 20, Epoch: 1}, 0},
		{&message{Kind: mHeartbeat, Ballot: Ballot{3, 0}, Inst: 1 << 40, ChosenSeq: 1 << 20}, 0},
		{&message{Kind: mAccept, Ballot: Ballot{3, 0}, Inst: 1 << 20, Val: make([]byte, 1500)}, 1},
	} {
		f := frame(c.m)
		got := testing.AllocsPerRun(200, func() {
			eps[0].Send(1, f)
			v, _ := node.inbox.Recv()
			m := v.(*message)
			if m.Kind != c.m.Kind || len(m.Val) != len(c.m.Val) {
				t.Fatalf("received %v with a %d-byte value", m.Kind, len(m.Val))
			}
			node.msgs.put(m)
		})
		if got != c.want {
			t.Errorf("%v: %v allocations from read to handleMessage, want %v", c.m.Kind, got, c.want)
		}
	}
}
