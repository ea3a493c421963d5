// Package transport carries messages between replicas. The in-process
// Network implementation runs under any env.Env with configurable delay,
// loss, and partitions — deterministic under the simulator — and is what
// tests and benchmarks use; cmd/rexd wires the same interface to TCP.
//
// Delivery is pushed: an endpoint calls its receiver's Handler on the
// goroutine that read the frame (TCPEndpoint's per-connection reader, or
// the Network's delivery task), so a routing layer (Mux, shard.NodeMux)
// is a table, not a goroutine, and a received frame reaches the consensus
// event loop in one hand-off.
package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rex/internal/env"
)

// Endpoint is one replica's attachment to the network.
//
// Payloads are borrowed in both directions. Send borrows its payload for
// the call only: the endpoint copies or writes it before returning, so
// the sender may reuse the buffer at once. A Handler borrows a delivered
// payload until it returns: a TCP endpoint lends a view into its
// connection's read buffer, which the next frame overwrites. A receiver
// that holds a payload, or anything decoded from it, past its handler
// copies it first (Delivery.Keep).
type Endpoint interface {
	// Send delivers payload to replica `to` asynchronously. Delivery may
	// be delayed, dropped, or blocked by a partition; it is never
	// duplicated or corrupted. Sends to self are delivered like any
	// other, never on the sender's stack.
	Send(to int, payload []byte)
	// Attach sets the handler every received payload is delivered to,
	// once. Payloads that arrive before it is attached wait for it; none
	// is delivered after Close.
	Attach(h Handler)
	// Close stops delivery to the handler.
	Close()
	// ID returns the replica id this endpoint belongs to.
	ID() int
}

// Handler receives one payload. It runs on the endpoint's reading
// goroutine, concurrently with other connections' handlers, and must not
// block: it decodes, or hands the payload off, and returns.
type Handler func(d Delivery)

// Delivery is one received payload, lent to the handler.
type Delivery struct {
	Payload []byte
	From    int
	// Lent is true when Payload is a view into the endpoint's read
	// buffer, valid only until the handler returns; false when the
	// endpoint allocated it for this delivery alone.
	Lent bool
}

// Keep returns the payload for the receiver to hold past its handler:
// the payload itself when the endpoint allocated it for this delivery,
// else a copy. A frame read into its own buffer (a checkpoint push) is
// therefore never copied again.
func (d Delivery) Keep() []byte {
	if d.Lent {
		return bytes.Clone(d.Payload)
	}
	return d.Payload
}

// Inlet is where deliveries meet an endpoint's handler. Until the
// handler is attached, deliveries are kept (Delivery.Keep) in arrival
// order; Attach hands them over on its own goroutine before any later
// delivery runs. After Close nothing is delivered. Its mutex is never held
// while a handler runs or anything blocks, so it is safe under the
// simulator too. The zero value is ready to use.
type Inlet struct {
	mu       sync.Mutex
	h        Handler
	pending  []Delivery
	flushing bool
	closed   bool
}

// Deliver passes d to the handler, or keeps it until one is attached.
func (in *Inlet) Deliver(d Delivery) {
	in.mu.Lock()
	if in.h != nil && !in.flushing {
		h := in.h
		in.mu.Unlock()
		h(d)
		return
	}
	if !in.closed {
		in.pending = append(in.pending, Delivery{Payload: d.Keep(), From: d.From})
	}
	in.mu.Unlock()
}

// Attach sets the handler and hands it what was kept. After Close it does
// nothing.
func (in *Inlet) Attach(h Handler) {
	in.mu.Lock()
	if in.closed {
		in.mu.Unlock()
		return
	}
	if in.h != nil {
		in.mu.Unlock()
		panic("transport: handler attached twice")
	}
	in.h = h
	in.flushing = true
	for len(in.pending) > 0 {
		batch := in.pending
		in.pending = nil
		in.mu.Unlock()
		for _, d := range batch {
			h(d)
		}
		in.mu.Lock()
	}
	in.flushing = false
	in.mu.Unlock()
}

// Close drops what was kept and everything delivered from now on.
func (in *Inlet) Close() {
	in.mu.Lock()
	in.closed = true
	in.h = func(Delivery) {}
	in.pending = nil
	in.mu.Unlock()
}

// Pending returns the number of deliveries kept for a handler not yet
// attached.
func (in *Inlet) Pending() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return len(in.pending)
}

// Network is an in-process message fabric between n replicas.
type Network struct {
	e  env.Env
	mu env.Mutex

	inboxes []env.Chan
	delay   time.Duration
	jitter  time.Duration
	lossP   float64
	rng     *rand.Rand
	cut     [][]bool       // cut[a][b]: messages a→b are dropped
	down    []bool         // down[i]: replica isolated (crashed)
	link    [][]delayRange // link[a][b]: per-link delay override (zero = none)

	bytesSent uint64
	msgsSent  uint64
	dropped   uint64
}

// NewNetwork creates a fabric for n replicas with the given base one-way
// delay. seed drives loss and jitter decisions deterministically.
func NewNetwork(e env.Env, n int, delay time.Duration, seed int64) *Network {
	nw := &Network{
		e:     e,
		mu:    e.NewMutex(),
		delay: delay,
		rng:   rand.New(rand.NewSource(seed)),
		cut:   make([][]bool, n),
		down:  make([]bool, n),
	}
	for i := 0; i < n; i++ {
		nw.inboxes = append(nw.inboxes, e.NewChan(0))
		nw.cut[i] = make([]bool, n)
	}
	nw.link = make([][]delayRange, n)
	for i := range nw.link {
		nw.link[i] = make([]delayRange, n)
	}
	return nw
}

// delayRange is a per-link delivery delay override; max <= min means a
// fixed delay of min.
type delayRange struct {
	min, max time.Duration
}

// Size returns the number of replicas the fabric connects.
func (nw *Network) Size() int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return len(nw.inboxes)
}

// Grow extends the fabric to n replicas (no-op if already that large), so
// a cluster can attach joiners without rebuilding the network. New slots
// start connected and fault-free.
func (nw *Network) Grow(n int) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	for len(nw.inboxes) < n {
		nw.inboxes = append(nw.inboxes, nw.e.NewChan(0))
		nw.down = append(nw.down, false)
	}
	for i := range nw.cut {
		for len(nw.cut[i]) < n {
			nw.cut[i] = append(nw.cut[i], false)
		}
		for len(nw.link[i]) < n {
			nw.link[i] = append(nw.link[i], delayRange{})
		}
	}
	for len(nw.cut) < n {
		nw.cut = append(nw.cut, make([]bool, n))
		nw.link = append(nw.link, make([]delayRange, n))
	}
}

// Endpoint returns replica i's endpoint, which receives from i's current
// inbox (see Reset).
func (nw *Network) Endpoint(i int) Endpoint {
	return &netEndpoint{nw: nw, id: i, inbox: nw.inbox(i)}
}

// Reset gives replica i a fresh inbox, discarding any queued or in-flight
// messages. Used when a crashed replica restarts: its previous endpoint
// was closed, and a restarted process starts with an empty socket.
func (nw *Network) Reset(i int) {
	nw.mu.Lock()
	nw.inboxes[i].Close()
	nw.inboxes[i] = env.NewChanFor(nw.e, 0)
	nw.mu.Unlock()
}

// inbox returns the current inbox of replica i.
func (nw *Network) inbox(i int) env.Chan {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.inboxes[i]
}

// SetLoss sets the independent drop probability for each message.
func (nw *Network) SetLoss(p float64) {
	nw.mu.Lock()
	nw.lossP = p
	nw.mu.Unlock()
}

// SetJitter sets the maximum extra random delivery delay.
func (nw *Network) SetJitter(d time.Duration) {
	nw.mu.Lock()
	nw.jitter = d
	nw.mu.Unlock()
}

// SetDelay overrides the delivery delay of the directed link a→b with a
// range [min, max). max <= min pins the link to a fixed delay of min; a
// zero range restores the network-wide base delay. The extra delay inside
// the range is drawn from the network's seeded rng, so a whole schedule of
// slow-link asymmetries replays identically from the same seed.
func (nw *Network) SetDelay(a, b int, min, max time.Duration) {
	nw.mu.Lock()
	nw.link[a][b] = delayRange{min: min, max: max}
	nw.mu.Unlock()
}

// Heal clears every fault the network carries — partitions, loss, jitter,
// and per-link delay overrides — leaving only the base delay. Crash
// isolation (Isolate) is replica state, not link state, and is untouched.
func (nw *Network) Heal() {
	nw.mu.Lock()
	for a := range nw.cut {
		for b := range nw.cut[a] {
			nw.cut[a][b] = false
			nw.link[a][b] = delayRange{}
		}
	}
	nw.lossP = 0
	nw.jitter = 0
	nw.mu.Unlock()
}

// SetPartition blocks or unblocks the directed link a→b.
func (nw *Network) SetPartition(a, b int, blocked bool) {
	nw.mu.Lock()
	nw.cut[a][b] = blocked
	nw.mu.Unlock()
}

// Isolate cuts replica i off from the network in both directions (a crash
// from the others' point of view). Reconnect with connected=true.
func (nw *Network) Isolate(i int, isolated bool) {
	nw.mu.Lock()
	nw.down[i] = isolated
	nw.mu.Unlock()
}

// Stats returns cumulative message and byte counts (delivered messages
// only) and the number of dropped messages.
func (nw *Network) Stats() (msgs, bytes, dropped uint64) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.msgsSent, nw.bytesSent, nw.dropped
}

type delivery struct {
	payload []byte
	from    int
}

type netEndpoint struct {
	nw     *Network
	id     int
	inbox  env.Chan
	closed atomic.Bool
}

func (ep *netEndpoint) ID() int { return ep.id }

// Send copies payload, since the sender may reuse it once Send returns,
// and queues one copy per destination, so every receiver owns what it is
// delivered.
func (ep *netEndpoint) Send(to int, payload []byte) {
	nw := ep.nw
	if to < 0 {
		panic("transport: send to negative replica id")
	}
	// An id beyond the fabric is dropped, not a panic: with dynamic
	// membership a replica can briefly hold a config naming a joiner the
	// test harness has not attached yet.
	if to == ep.id {
		// Local delivery (e.g. a leader's message to its own acceptor)
		// bypasses the network: no delay, no loss.
		nw.mu.Lock()
		if to >= len(nw.inboxes) {
			nw.dropped++
			nw.mu.Unlock()
			return
		}
		down := nw.down[ep.id]
		var inbox env.Chan
		if !down {
			nw.msgsSent++
			nw.bytesSent += uint64(len(payload))
			inbox = nw.inboxes[to]
		}
		nw.mu.Unlock()
		if inbox != nil {
			inbox.TrySend(delivery{payload: bytes.Clone(payload), from: ep.id})
		}
		return
	}
	nw.mu.Lock()
	if to >= len(nw.inboxes) {
		nw.dropped++
		nw.mu.Unlock()
		return
	}
	if nw.down[ep.id] || nw.down[to] || nw.cut[ep.id][to] {
		nw.dropped++
		nw.mu.Unlock()
		return
	}
	if nw.lossP > 0 && nw.rng.Float64() < nw.lossP {
		nw.dropped++
		nw.mu.Unlock()
		return
	}
	d := nw.delay
	if lr := nw.link[ep.id][to]; lr.min > 0 || lr.max > 0 {
		d = lr.min
		if lr.max > lr.min {
			d += time.Duration(nw.rng.Int63n(int64(lr.max - lr.min)))
		}
	}
	if nw.jitter > 0 {
		d += time.Duration(nw.rng.Int63n(int64(nw.jitter)))
	}
	nw.msgsSent++
	nw.bytesSent += uint64(len(payload))
	inbox := nw.inboxes[to]
	nw.mu.Unlock()

	msg := delivery{payload: bytes.Clone(payload), from: ep.id}
	if d <= 0 {
		inbox.TrySend(msg)
		return
	}
	nw.e.AfterFunc(d, func() {
		// Re-check liveness at delivery time: messages in flight to a
		// replica that crashed meanwhile are lost.
		nw.mu.Lock()
		drop := nw.down[to]
		nw.mu.Unlock()
		if !drop {
			inbox.TrySend(msg)
		}
	})
}

// Attach starts the endpoint's delivery task, which plays the part of a
// TCP endpoint's reader: it takes each payload off the inbox and calls h.
// Payloads queued before Attach wait in the inbox.
func (ep *netEndpoint) Attach(h Handler) {
	ep.nw.e.Go(fmt.Sprintf("net-%d-deliver", ep.id), func() {
		for {
			v, ok := ep.inbox.Recv()
			if !ok || ep.closed.Load() {
				return
			}
			d := v.(delivery)
			h(Delivery{Payload: d.payload, From: d.from})
		}
	})
}

func (ep *netEndpoint) Close() {
	ep.closed.Store(true)
	ep.inbox.Close()
}
