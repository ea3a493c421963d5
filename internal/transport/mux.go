package transport

import "rex/internal/env"

// Mux multiplexes several logical channels over one Endpoint without a
// channel tag: each channel owns a disjoint range of first-byte values, and
// every payload's first byte — its sender's message kind — already says
// which channel it belongs to. Sends pass the caller's payload through
// untouched, so multiplexing costs no copy. Rex uses channel 0 (kinds
// below 0x80) for Paxos and channel 1 (0x80 and up) for its control plane
// (checkpoint transfer, replay status).
type Mux struct {
	ep   Endpoint
	subs []*muxEndpoint
	// route maps a payload's first byte to its channel index, -1 for
	// bytes no channel owns.
	route [256]int8
}

// NewMux wraps ep into len(lows) logical channels and starts the demux
// pump. Channel i carries the payloads whose first byte lies in
// [lows[i], lows[i+1]); the last channel extends through 0xff. lows must
// be strictly increasing; first bytes below lows[0] are unroutable.
func NewMux(e env.Env, ep Endpoint, lows ...byte) *Mux {
	m := &Mux{ep: ep}
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
		m.subs = append(m.subs, &muxEndpoint{
			mux:   m,
			ch:    int8(ch),
			inbox: e.NewChan(0),
		})
	}
	e.Go("transport-mux", func() {
		for {
			payload, from, ok := ep.Recv()
			if !ok {
				for _, s := range m.subs {
					s.inbox.Close()
				}
				return
			}
			if len(payload) == 0 || m.route[payload[0]] < 0 {
				continue // unroutable
			}
			m.subs[m.route[payload[0]]].inbox.TrySend(delivery{payload: payload, from: from})
		}
	})
	return m
}

// Channel returns logical channel ch as an Endpoint.
func (m *Mux) Channel(ch int) Endpoint { return m.subs[ch] }

// Close closes the underlying endpoint (which stops the pump and closes
// every channel).
func (m *Mux) Close() { m.ep.Close() }

type muxEndpoint struct {
	mux   *Mux
	ch    int8
	inbox env.Chan
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

func (s *muxEndpoint) Recv() ([]byte, int, bool) {
	v, ok := s.inbox.Recv()
	if !ok {
		return nil, 0, false
	}
	d := v.(delivery)
	return d.payload, d.from, true
}

func (s *muxEndpoint) Close() { s.inbox.Close() }
