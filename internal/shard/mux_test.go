package shard

import (
	"testing"
	"time"

	"rex/internal/env"
	"rex/internal/sim"
	"rex/internal/transport"
)

// recvQueue attaches a handler to ep that keeps each delivery, and
// returns a blocking receive for them.
func recvQueue(e env.Env, ep transport.Endpoint) func() ([]byte, int, bool) {
	ch := e.NewChan(0)
	ep.Attach(func(d transport.Delivery) { ch.Send(transport.Delivery{Payload: d.Keep(), From: d.From}) })
	return func() ([]byte, int, bool) {
		v, ok := ch.Recv()
		if !ok {
			return nil, 0, false
		}
		d := v.(transport.Delivery)
		return d.Payload, d.From, true
	}
}

// TestNodeMuxRoutesByGroup checks the demux contract: a message sent on
// group g's sub-endpoint arrives on the peer node's sub-endpoint for g,
// with the sender translated to its in-group replica index.
func TestNodeMuxRoutesByGroup(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		m, err := NewShardMap(1, 2, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Placement: group 0 -> nodes {0,1}, group 1 -> nodes {1,2}.
		nw := transport.NewNetwork(e, 3, time.Millisecond, 1)
		muxes := make([]*NodeMux, 3)
		for n := range muxes {
			muxes[n] = NewNodeMux(nw.Endpoint(n), m, n)
		}
		g0n0 := muxes[0].Endpoint(0) // group 0 replica 0
		g0n1 := muxes[1].Endpoint(0) // group 0 replica 1
		g1n1 := muxes[1].Endpoint(1) // group 1 replica 0
		g1n2 := muxes[2].Endpoint(1) // group 1 replica 1

		if g0n0.ID() != 0 || g0n1.ID() != 1 || g1n1.ID() != 0 || g1n2.ID() != 1 {
			t.Fatalf("sub-endpoint IDs = %d %d %d %d", g0n0.ID(), g0n1.ID(), g1n1.ID(), g1n2.ID())
		}

		// Both groups talk over the shared node mesh without crosstalk. A
		// payload sent before its group's replica attaches waits for it.
		g0n0.Send(1, []byte("zero"))
		g1n2.Send(0, []byte("one"))
		e.Sleep(5 * time.Millisecond)
		g0n1Recv, g1n1Recv := recvQueue(e, g0n1), recvQueue(e, g1n1)
		if payload, from, ok := g0n1Recv(); !ok || from != 0 || string(payload) != "zero" {
			t.Fatalf("group 0 recv = %q,%d,%v", payload, from, ok)
		}
		if payload, from, ok := g1n1Recv(); !ok || from != 1 || string(payload) != "one" {
			t.Fatalf("group 1 recv = %q,%d,%v", payload, from, ok)
		}

		// Closing one group's endpoint must not affect the other group on
		// the same node: replicas fail independently.
		g1n1.Close()
		g0n0.Send(1, []byte("still-up"))
		if payload, _, ok := g0n1Recv(); !ok || string(payload) != "still-up" {
			t.Fatalf("group 0 after group 1 close = %q,%v", payload, ok)
		}

		// Re-acquiring a group endpoint (a restarted replica) starts with
		// nothing queued and keeps working.
		g1n1b := muxes[1].Endpoint(1)
		g1n2.Send(0, []byte("after-restart"))
		if payload, from, ok := recvQueue(e, g1n1b)(); !ok || from != 1 || string(payload) != "after-restart" {
			t.Fatalf("restarted group 1 recv = %q,%d,%v", payload, from, ok)
		}

		// Node mux close tears down the remaining sub-endpoints: nothing
		// sent afterwards is delivered.
		muxes[1].Close()
		got := 0
		g0n1c := muxes[1].Endpoint(0)
		g0n1c.Attach(func(transport.Delivery) { got++ })
		g0n0.Send(1, []byte("after-close"))
		e.Sleep(5 * time.Millisecond)
		if got != 0 {
			t.Fatal("sub-endpoint delivered after node close")
		}
	})
}
