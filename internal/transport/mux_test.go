package transport

import (
	"testing"
	"time"

	"rex/internal/sim"
)

func TestMuxRoutesChannels(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		nw := NewNetwork(e, 2, time.Millisecond, 1)
		muxA := NewMux(e, nw.Endpoint(0), 0, 0x80)
		muxB := NewMux(e, nw.Endpoint(1), 0, 0x80)
		defer muxA.Close()
		defer muxB.Close()

		ctrl := append([]byte{0x81}, "ctrl"...)
		muxA.Channel(0).Send(1, []byte("paxos"))
		muxA.Channel(1).Send(1, ctrl)

		p, from, ok := muxB.Channel(0).Recv()
		if !ok || from != 0 || string(p) != "paxos" {
			t.Fatalf("channel 0 got %q from %d ok=%v", p, from, ok)
		}
		c, _, ok := muxB.Channel(1).Recv()
		if !ok || string(c) != string(ctrl) {
			t.Fatalf("channel 1 got %q ok=%v", c, ok)
		}
	})
}

func TestMuxDropsUnroutable(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		nw := NewNetwork(e, 2, 0, 1)
		mux := NewMux(e, nw.Endpoint(1), 1, 0x80)
		defer mux.Close()
		// A raw frame whose first byte no channel owns must be dropped, not
		// crash the pump.
		nw.Endpoint(0).Send(1, []byte{0, 'x'})
		nw.Endpoint(0).Send(1, []byte{}) // empty frame
		nw.Endpoint(0).Send(1, []byte{1, 'o', 'k'})
		e.Sleep(time.Millisecond)
		p, _, ok := mux.Channel(0).Recv()
		if !ok || string(p) != "\x01ok" {
			t.Fatalf("got %q ok=%v", p, ok)
		}
	})
}

func TestMuxCloseClosesChannels(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		nw := NewNetwork(e, 2, 0, 1)
		mux := NewMux(e, nw.Endpoint(0), 0, 0x80)
		done := 0
		for ch := 0; ch < 2; ch++ {
			ch := ch
			e.Go("rx", func() {
				_, _, ok := mux.Channel(ch).Recv()
				if !ok {
					done++
				}
			})
		}
		e.Sleep(time.Millisecond)
		mux.Close()
		e.Sleep(time.Millisecond)
		if done != 2 {
			t.Errorf("%d channel receivers unblocked, want 2", done)
		}
	})
}

func TestMuxID(t *testing.T) {
	e := sim.New(1)
	e.Run(func() {
		nw := NewNetwork(e, 3, 0, 1)
		mux := NewMux(e, nw.Endpoint(2), 0)
		defer mux.Close()
		if got := mux.Channel(0).ID(); got != 2 {
			t.Errorf("channel ID = %d, want 2", got)
		}
	})
}

func TestMuxSendPassesPayloadThrough(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		nw := NewNetwork(e, 2, 0, 1)
		var sent [][]byte
		rec := &recordingEndpoint{Endpoint: nw.Endpoint(0), sent: &sent}
		mux := NewMux(e, rec, 0, 0x80)
		defer mux.Close()
		payload := []byte{0x82, 1, 2, 3}
		mux.Channel(1).Send(1, payload)
		if len(sent) != 1 || &sent[0][0] != &payload[0] || len(sent[0]) != len(payload) {
			t.Fatalf("mux did not hand the caller's payload through unchanged: %v", sent)
		}
		defer func() {
			if recover() == nil {
				t.Error("sending a control-range payload on channel 0 did not panic")
			}
		}()
		mux.Channel(0).Send(1, payload)
	})
}

// recordingEndpoint records every payload sent through it.
type recordingEndpoint struct {
	Endpoint
	sent *[][]byte
}

func (r *recordingEndpoint) Send(to int, payload []byte) {
	*r.sent = append(*r.sent, payload)
	r.Endpoint.Send(to, payload)
}
