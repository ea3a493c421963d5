package transport

import (
	"fmt"
	"testing"
	"time"

	"rex/internal/env"
	"rex/internal/sim"
)

// queue collects what an endpoint delivers, for tests that read it in
// order. It keeps each payload, which a handler only borrows.
type queue struct{ ch env.Chan }

func collect(e env.Env, ep Endpoint) *queue {
	q := &queue{ch: e.NewChan(0)}
	ep.Attach(func(d Delivery) { q.ch.Send(Delivery{Payload: d.Keep(), From: d.From}) })
	return q
}

// Recv blocks for the next delivery.
func (q *queue) Recv() (payload []byte, from int, ok bool) {
	v, ok := q.ch.Recv()
	if !ok {
		return nil, 0, false
	}
	d := v.(Delivery)
	return d.Payload, d.From, true
}

func TestDeliveryWithDelay(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		nw := NewNetwork(e, 2, 5*time.Millisecond, 1)
		a, b := nw.Endpoint(0), collect(e, nw.Endpoint(1))
		start := e.Now()
		a.Send(1, []byte("hello"))
		payload, from, ok := b.Recv()
		if !ok || from != 0 || string(payload) != "hello" {
			t.Fatalf("Recv = %q,%d,%v", payload, from, ok)
		}
		if got := e.Now() - start; got != 5*time.Millisecond {
			t.Errorf("delivered after %v, want 5ms", got)
		}
	})
}

func TestSelfSendIsImmediate(t *testing.T) {
	e := sim.New(1)
	e.Run(func() {
		nw := NewNetwork(e, 2, 50*time.Millisecond, 1)
		a := nw.Endpoint(0)
		q := collect(e, a)
		start := e.Now()
		a.Send(0, []byte("loop"))
		_, _, ok := q.Recv()
		if !ok {
			t.Fatal("self recv failed")
		}
		if got := e.Now() - start; got != 0 {
			t.Errorf("self delivery took %v, want 0", got)
		}
	})
}

func TestFIFOPerLink(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		nw := NewNetwork(e, 2, time.Millisecond, 1)
		a, b := nw.Endpoint(0), collect(e, nw.Endpoint(1))
		for i := 0; i < 20; i++ {
			a.Send(1, []byte(fmt.Sprintf("%d", i)))
		}
		for i := 0; i < 20; i++ {
			payload, _, ok := b.Recv()
			if !ok || string(payload) != fmt.Sprintf("%d", i) {
				t.Fatalf("message %d = %q (ok=%v)", i, payload, ok)
			}
		}
	})
}

func TestPartitionBlocksDirected(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		nw := NewNetwork(e, 2, time.Millisecond, 1)
		a, b := nw.Endpoint(0), nw.Endpoint(1)
		qa, qb := collect(e, a), collect(e, b)
		nw.SetPartition(0, 1, true)
		a.Send(1, []byte("blocked"))
		b.Send(0, []byte("open"))
		payload, _, ok := qa.Recv()
		if !ok || string(payload) != "open" {
			t.Fatalf("reverse direction broken: %q", payload)
		}
		e.Sleep(10 * time.Millisecond)
		if n := qb.ch.Len(); n != 0 {
			t.Errorf("partitioned link delivered %d messages", n)
		}
		nw.SetPartition(0, 1, false)
		a.Send(1, []byte("now"))
		payload, _, _ = qb.Recv()
		if string(payload) != "now" {
			t.Errorf("after healing got %q", payload)
		}
	})
}

func TestIsolationDropsBothDirectionsAndInFlight(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		nw := NewNetwork(e, 2, 10*time.Millisecond, 1)
		a := nw.Endpoint(0)
		// Message in flight when the destination crashes: must be lost.
		a.Send(1, []byte("inflight"))
		e.Sleep(2 * time.Millisecond)
		nw.Isolate(1, true)
		e.Sleep(20 * time.Millisecond)
		if n := nw.inboxes[1].Len(); n != 0 {
			t.Errorf("crashed replica received %d in-flight messages", n)
		}
		nw.Isolate(1, false)
		a.Send(1, []byte("alive"))
		e.Sleep(20 * time.Millisecond)
		if n := nw.inboxes[1].Len(); n != 1 {
			t.Errorf("rejoined replica has %d queued, want 1", n)
		}
	})
}

func TestLossIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) uint64 {
		var dropped uint64
		e := sim.New(2)
		e.Run(func() {
			nw := NewNetwork(e, 2, time.Millisecond, seed)
			nw.SetLoss(0.5)
			a := nw.Endpoint(0)
			for i := 0; i < 100; i++ {
				a.Send(1, []byte("x"))
			}
			_, _, dropped = nw.Stats()
		})
		return dropped
	}
	if run(7) != run(7) {
		t.Error("same seed produced different loss patterns")
	}
	if run(7) == 0 {
		t.Error("50% loss dropped nothing")
	}
}

func TestStatsCountBytes(t *testing.T) {
	e := sim.New(1)
	e.Run(func() {
		nw := NewNetwork(e, 2, 0, 1)
		a := nw.Endpoint(0)
		a.Send(1, make([]byte, 100))
		a.Send(1, make([]byte, 50))
		msgs, bytes, _ := nw.Stats()
		if msgs != 2 || bytes != 150 {
			t.Errorf("stats = %d msgs %d bytes, want 2, 150", msgs, bytes)
		}
	})
}

func TestCloseUnblocksReceiver(t *testing.T) {
	// Close ends delivery: neither a payload in flight at Close nor one
	// sent after it reaches the handler.
	e := sim.New(2)
	e.Run(func() {
		nw := NewNetwork(e, 2, time.Millisecond, 1)
		a, b := nw.Endpoint(0), nw.Endpoint(1)
		got := 0
		b.Attach(func(Delivery) { got++ })
		a.Send(1, []byte("before"))
		e.Sleep(2 * time.Millisecond)
		if got != 1 {
			t.Fatalf("%d deliveries before Close, want 1", got)
		}
		a.Send(1, []byte("in flight"))
		b.Close()
		a.Send(1, []byte("after"))
		e.Sleep(2 * time.Millisecond)
		if got != 1 {
			t.Errorf("%d deliveries, want none after Close", got-1)
		}
	})
}

func TestHandlerBorrowsAndSenderReuses(t *testing.T) {
	// The network copies at Send, so a sender may overwrite its buffer at
	// once, and each receiver owns the copy it is handed (Lent is false).
	e := sim.New(2)
	e.Run(func() {
		nw := NewNetwork(e, 3, time.Millisecond, 1)
		var got []Delivery
		for i := 1; i < 3; i++ {
			nw.Endpoint(i).Attach(func(d Delivery) { got = append(got, d) })
		}
		buf := []byte("first")
		a := nw.Endpoint(0)
		a.Send(1, buf)
		a.Send(2, buf)
		copy(buf, "XXXXX")
		e.Sleep(2 * time.Millisecond)
		if len(got) != 2 || string(got[0].Payload) != "first" || string(got[1].Payload) != "first" {
			t.Fatalf("deliveries = %+v, want two of %q", got, "first")
		}
		if got[0].Lent || &got[0].Keep()[0] != &got[0].Payload[0] || &got[0].Payload[0] == &got[1].Payload[0] {
			t.Error("each receiver should own a copy of its own")
		}
	})
}

func TestFramesWaitForHandler(t *testing.T) {
	// Payloads that arrive before the handler is attached wait for it and
	// are then delivered in order.
	e := sim.New(2)
	e.Run(func() {
		nw := NewNetwork(e, 2, time.Millisecond, 1)
		a, b := nw.Endpoint(0), nw.Endpoint(1)
		for i := 0; i < 3; i++ {
			a.Send(1, []byte{byte(i)})
		}
		e.Sleep(5 * time.Millisecond)
		q := collect(e, b)
		for i := 0; i < 3; i++ {
			if p, _, ok := q.Recv(); !ok || len(p) != 1 || p[0] != byte(i) {
				t.Fatalf("delivery %d = %v, %v", i, p, ok)
			}
		}
	})
}

func TestSetDelayOverridesPerLink(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		nw := NewNetwork(e, 2, time.Millisecond, 1)
		a, b := nw.Endpoint(0), nw.Endpoint(1)
		qa, qb := collect(e, a), collect(e, b)

		// A fixed override (max <= min) pins the directed link; the reverse
		// direction keeps the base delay — slow links are asymmetric.
		nw.SetDelay(0, 1, 40*time.Millisecond, 0)
		start := e.Now()
		a.Send(1, []byte("slow"))
		qb.Recv()
		if got := e.Now() - start; got != 40*time.Millisecond {
			t.Errorf("overridden link delivered after %v, want 40ms", got)
		}
		start = e.Now()
		b.Send(0, []byte("base"))
		qa.Recv()
		if got := e.Now() - start; got != time.Millisecond {
			t.Errorf("reverse link delivered after %v, want base 1ms", got)
		}

		// A range [min, max) stays inside its bounds.
		nw.SetDelay(0, 1, 10*time.Millisecond, 30*time.Millisecond)
		for i := 0; i < 5; i++ {
			start = e.Now()
			a.Send(1, []byte("jittered"))
			qb.Recv()
			got := e.Now() - start
			if got < 10*time.Millisecond || got >= 30*time.Millisecond {
				t.Errorf("ranged delay %v outside [10ms, 30ms)", got)
			}
		}

		// Heal clears the override back to the base delay.
		nw.Heal()
		start = e.Now()
		a.Send(1, []byte("healed"))
		qb.Recv()
		if got := e.Now() - start; got != time.Millisecond {
			t.Errorf("healed link delivered after %v, want base 1ms", got)
		}
	})
}

func TestSetDelayDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var delays []time.Duration
		e := sim.New(2)
		e.Run(func() {
			nw := NewNetwork(e, 2, time.Millisecond, seed)
			nw.SetDelay(0, 1, time.Millisecond, 20*time.Millisecond)
			a, b := nw.Endpoint(0), collect(e, nw.Endpoint(1))
			for i := 0; i < 10; i++ {
				start := e.Now()
				a.Send(1, []byte("x"))
				b.Recv()
				delays = append(delays, e.Now()-start)
			}
		})
		return delays
	}
	x, y := run(11), run(11)
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("same seed diverged at send %d: %v vs %v", i, x[i], y[i])
		}
	}
	z := run(12)
	same := true
	for i := range x {
		if x[i] != z[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical delay sequences")
	}
}
