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
		muxA := NewMux(nw.Endpoint(0), 0, 0x80)
		muxB := NewMux(nw.Endpoint(1), 0, 0x80)
		defer muxA.Close()
		defer muxB.Close()

		ctrl := append([]byte{0x81}, "ctrl"...)
		muxA.Channel(0).Send(1, []byte("paxos"))
		muxA.Channel(1).Send(1, ctrl)

		q0, q1 := collect(e, muxB.Channel(0)), collect(e, muxB.Channel(1))
		p, from, ok := q0.Recv()
		if !ok || from != 0 || string(p) != "paxos" {
			t.Fatalf("channel 0 got %q from %d ok=%v", p, from, ok)
		}
		c, _, ok := q1.Recv()
		if !ok || string(c) != string(ctrl) {
			t.Fatalf("channel 1 got %q ok=%v", c, ok)
		}
	})
}

func TestMuxDropsUnroutable(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		nw := NewNetwork(e, 2, 0, 1)
		mux := NewMux(nw.Endpoint(1), 1, 0x80)
		defer mux.Close()
		q := collect(e, mux.Channel(0))
		mux.Channel(1).Close()
		// A raw frame whose first byte no channel owns must be dropped, not
		// crash the pump.
		nw.Endpoint(0).Send(1, []byte{0, 'x'})
		nw.Endpoint(0).Send(1, []byte{}) // empty frame
		nw.Endpoint(0).Send(1, []byte{1, 'o', 'k'})
		e.Sleep(time.Millisecond)
		p, _, ok := q.Recv()
		if !ok || string(p) != "\x01ok" {
			t.Fatalf("got %q ok=%v", p, ok)
		}
	})
}

func TestMuxCloseClosesChannels(t *testing.T) {
	// Closing the mux closes the endpoint under it: no channel is
	// delivered anything afterwards. Closing one channel leaves the other
	// running.
	e := sim.New(2)
	e.Run(func() {
		nw := NewNetwork(e, 2, 0, 1)
		mux := NewMux(nw.Endpoint(1), 0, 0x80)
		got := [2]int{}
		for ch := 0; ch < 2; ch++ {
			ch := ch
			mux.Channel(ch).Attach(func(Delivery) { got[ch]++ })
		}
		a := nw.Endpoint(0)
		mux.Channel(1).Close()
		a.Send(1, []byte{0x01})
		a.Send(1, []byte{0x81})
		e.Sleep(time.Millisecond)
		if got != [2]int{1, 0} {
			t.Fatalf("deliveries per channel = %v, want [1 0] with channel 1 closed", got)
		}
		mux.Close()
		a.Send(1, []byte{0x01})
		e.Sleep(time.Millisecond)
		if got != [2]int{1, 0} {
			t.Errorf("deliveries per channel = %v after mux Close, want [1 0]", got)
		}
	})
}

func TestMuxWaitsForEveryChannel(t *testing.T) {
	// The router attaches once every channel has a handler: a payload for
	// a channel attached early waits with the rest, and none is lost.
	e := sim.New(2)
	e.Run(func() {
		nw := NewNetwork(e, 2, 0, 1)
		mux := NewMux(nw.Endpoint(1), 0, 0x80)
		q0 := collect(e, mux.Channel(0))
		a := nw.Endpoint(0)
		a.Send(1, []byte{0x01})
		a.Send(1, []byte{0x81})
		e.Sleep(time.Millisecond)
		if q0.ch.Len() != 0 {
			t.Fatal("channel 0 delivered before channel 1 had a handler")
		}
		q1 := collect(e, mux.Channel(1))
		if p, _, ok := q0.Recv(); !ok || p[0] != 0x01 {
			t.Fatalf("channel 0 got %v, %v", p, ok)
		}
		if p, _, ok := q1.Recv(); !ok || p[0] != 0x81 {
			t.Fatalf("channel 1 got %v, %v", p, ok)
		}
	})
}

func TestMuxID(t *testing.T) {
	e := sim.New(1)
	e.Run(func() {
		nw := NewNetwork(e, 3, 0, 1)
		mux := NewMux(nw.Endpoint(2), 0)
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
		mux := NewMux(rec, 0, 0x80)
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
