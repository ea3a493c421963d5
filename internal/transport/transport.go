// Package transport carries messages between replicas. The in-process
// Network implementation runs under any env.Env with configurable delay,
// loss, and partitions — deterministic under the simulator — and is what
// tests and benchmarks use; cmd/rexd wires the same interface to TCP.
package transport

import (
	"math/rand"
	"time"

	"rex/internal/env"
)

// Endpoint is one replica's attachment to the network.
//
// Payloads change hands without a copy. The sender gives up a payload on
// Send and never writes it again. The receiver owns a delivered payload
// for as long as it likes, so values decoded from it may alias it rather
// than copy it out. An in-process network hands one slice to every peer
// it was sent to, so receivers only read a payload, never write it.
type Endpoint interface {
	// Send delivers payload to replica `to` asynchronously. Delivery may
	// be delayed, dropped, or blocked by a partition; it is never
	// duplicated or corrupted. Sends to self are delivered like any other.
	Send(to int, payload []byte)
	// Recv blocks for the next incoming message; ok is false once the
	// endpoint is closed and drained.
	Recv() (payload []byte, from int, ok bool)
	// Close shuts the endpoint's inbox down.
	Close()
	// ID returns the replica id this endpoint belongs to.
	ID() int
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

// Endpoint returns replica i's endpoint.
func (nw *Network) Endpoint(i int) Endpoint { return &netEndpoint{nw: nw, id: i} }

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
	nw *Network
	id int
}

func (ep *netEndpoint) ID() int { return ep.id }

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
			inbox.TrySend(delivery{payload: payload, from: ep.id})
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

	msg := delivery{payload: payload, from: ep.id}
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

func (ep *netEndpoint) Recv() ([]byte, int, bool) {
	v, ok := ep.nw.inbox(ep.id).Recv()
	if !ok {
		return nil, 0, false
	}
	d := v.(delivery)
	return d.payload, d.from, true
}

func (ep *netEndpoint) Close() {
	ep.nw.inbox(ep.id).Close()
}
