package shard

import (
	"encoding/binary"
	"sync"

	"rex/internal/transport"
)

// NodeMux multiplexes one replica endpoint per hosted group over a single
// node-level transport endpoint, so a process participating in many
// groups needs only one listener and one peer mesh. Every payload is
// prefixed with a uvarint group id; inbound messages are routed to the
// group's sub-endpoint with the sender translated from node id to the
// sender's replica index within that group (which is what Paxos
// addresses). Routing is a table lookup on the node endpoint's reading
// goroutine; a group's payloads that arrive before its replica attaches
// wait in the group's sub-endpoint.
type NodeMux struct {
	ep   transport.Endpoint
	m    *ShardMap
	node int

	mu   sync.Mutex
	subs map[int]*groupEndpoint
}

// NewNodeMux wraps the node-level endpoint and attaches the router to it.
func NewNodeMux(ep transport.Endpoint, m *ShardMap, node int) *NodeMux {
	nm := &NodeMux{
		ep:   ep,
		m:    m,
		node: node,
		subs: make(map[int]*groupEndpoint),
	}
	ep.Attach(nm.deliver)
	return nm
}

func (nm *NodeMux) deliver(d transport.Delivery) {
	g, n := binary.Uvarint(d.Payload)
	if n <= 0 || g >= uint64(nm.m.Groups()) {
		return // unroutable
	}
	from := nm.m.ReplicaOn(int(g), d.From)
	if from < 0 {
		return // sender claims a group it has no replica in
	}
	nm.mu.Lock()
	sub := nm.subs[int(g)]
	nm.mu.Unlock()
	if sub != nil {
		d.Payload, d.From = d.Payload[n:], from
		sub.in.Deliver(d)
	}
}

// Endpoint returns a fresh endpoint for group g's local replica,
// replacing any previous one (a restarted replica starts with nothing
// queued, like a new process's socket). The replica must be placed on
// this node.
func (nm *NodeMux) Endpoint(g int) transport.Endpoint {
	if nm.m.ReplicaOn(g, nm.node) < 0 {
		panic("shard: node hosts no replica of this group")
	}
	sub := &groupEndpoint{nm: nm, group: g}
	nm.mu.Lock()
	if old := nm.subs[g]; old != nil {
		old.in.Close()
	}
	nm.subs[g] = sub
	nm.mu.Unlock()
	return sub
}

// Close shuts the node endpoint down and, with it, every group
// sub-endpoint.
func (nm *NodeMux) Close() {
	nm.ep.Close()
	nm.mu.Lock()
	for _, s := range nm.subs {
		s.in.Close()
	}
	nm.mu.Unlock()
}

type groupEndpoint struct {
	nm    *NodeMux
	group int
	in    transport.Inlet
}

// ID is the local replica's index within its group (what Paxos uses).
func (s *groupEndpoint) ID() int { return s.nm.m.ReplicaOn(s.group, s.nm.node) }

// sendBufs holds the buffers group-prefixed frames are assembled in: the
// node endpoint borrows a payload only for the length of Send.
var sendBufs = sync.Pool{New: func() any { return new([]byte) }}

func (s *groupEndpoint) Send(to int, payload []byte) {
	row := s.nm.m.Placement[s.group]
	if to < 0 || to >= len(row) {
		panic("shard: send to unknown group replica")
	}
	bp := sendBufs.Get().(*[]byte)
	buf := append(binary.AppendUvarint((*bp)[:0], uint64(s.group)), payload...)
	s.nm.ep.Send(row[to], buf)
	if cap(buf) <= 64<<10 {
		*bp = buf
		sendBufs.Put(bp)
	}
}

func (s *groupEndpoint) Attach(h transport.Handler) { s.in.Attach(h) }

// Close ends delivery to this group only; the node endpoint and the other
// groups keep running (one group's replica stopping is not a node crash).
func (s *groupEndpoint) Close() { s.in.Close() }
