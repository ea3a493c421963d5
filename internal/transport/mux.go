package transport

import (
	"sync"
	"sync/atomic"
)

// Mux multiplexes several logical channels over one Endpoint without a
// channel tag: each channel owns a disjoint range of first-byte values, and
// every payload's first byte — its sender's message kind — already says
// which channel it belongs to. Sends pass the caller's payload through
// untouched, so multiplexing costs no copy. Rex uses channel 0 (kinds
// below 0x80) for Paxos and channel 1 (0x80 and up) for its control plane
// (checkpoint transfer, replay status).
//
// The Mux is a routing table, not a goroutine: it attaches one handler to
// the underlying endpoint, once every channel has a handler of its own
// (or is closed), and that handler calls the channel's handler on the
// endpoint's reading goroutine. Until then payloads wait in the
// underlying endpoint.
type Mux struct {
	ep   Endpoint
	subs []*muxEndpoint
	// route maps a payload's first byte to its channel index, -1 for
	// bytes no channel owns.
	route [256]int8

	mu        sync.Mutex
	unsettled int // channels with neither a handler nor a Close
}

// NewMux wraps ep into len(lows) logical channels. Channel i carries the
// payloads whose first byte lies in [lows[i], lows[i+1]); the last channel
// extends through 0xff. lows must be strictly increasing; first bytes
// below lows[0] are unroutable.
func NewMux(ep Endpoint, lows ...byte) *Mux {
	m := &Mux{ep: ep, unsettled: len(lows)}
	for b := range m.route {
		m.route[b] = -1
	}
	for ch, lo := range lows {
		hi := 256
		if ch+1 < len(lows) {
			hi = int(lows[ch+1])
			if hi <= int(lo) {
				panic("transport: mux channel ranges must increase")
			}
		}
		for b := int(lo); b < hi; b++ {
			m.route[b] = int8(ch)
		}
		m.subs = append(m.subs, &muxEndpoint{mux: m, ch: int8(ch)})
	}
	return m
}

// Channel returns logical channel ch as an Endpoint.
func (m *Mux) Channel(ch int) Endpoint { return m.subs[ch] }

// Close closes the underlying endpoint, which ends delivery on every
// channel.
func (m *Mux) Close() { m.ep.Close() }

// settle counts one channel as ready; the last one attaches the router.
func (m *Mux) settle(s *muxEndpoint, h Handler) {
	m.mu.Lock()
	if s.settled {
		m.mu.Unlock()
		if h != nil && !s.closed.Load() {
			panic("transport: handler attached twice")
		}
		return
	}
	s.settled = true
	s.h = h
	m.unsettled--
	last := m.unsettled == 0
	m.mu.Unlock()
	if last {
		m.ep.Attach(m.deliver)
	}
}

// deliver routes one payload by its first byte.
func (m *Mux) deliver(d Delivery) {
	if len(d.Payload) == 0 || m.route[d.Payload[0]] < 0 {
		return // unroutable
	}
	s := m.subs[m.route[d.Payload[0]]]
	if h := s.h; h != nil && !s.closed.Load() {
		h(d)
	}
}

type muxEndpoint struct {
	mux     *Mux
	ch      int8
	settled bool    // guarded by mux.mu
	h       Handler // set before the router is attached, read-only after
	closed  atomic.Bool
}

func (s *muxEndpoint) ID() int { return s.mux.ep.ID() }

// Send passes payload to the underlying endpoint as is. Its first byte
// must lie in this channel's range: anything else would be delivered to
// another channel, so it is a programming error.
func (s *muxEndpoint) Send(to int, payload []byte) {
	if len(payload) == 0 || s.mux.route[payload[0]] != s.ch {
		panic("transport: mux payload's first byte is outside its channel's range")
	}
	s.mux.ep.Send(to, payload)
}

func (s *muxEndpoint) Attach(h Handler) { s.mux.settle(s, h) }

// Close ends delivery on this channel only; the others keep running.
func (s *muxEndpoint) Close() {
	s.closed.Store(true)
	s.mux.settle(s, nil)
}
