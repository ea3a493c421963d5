//go:build !race

package env

import "testing"

// TestChanSteadyStateAllocs pins that a channel keeps its queue array: a
// send plus a receive on a warmed channel allocates nothing.
func TestChanSteadyStateAllocs(t *testing.T) {
	ch := NewReal().NewChan(0)
	msg := any(&struct{}{}) // boxed once, so only the queue could allocate
	for i := 0; i < 8; i++ {
		ch.Send(msg)
	}
	for i := 0; i < 8; i++ {
		ch.Recv()
	}
	got := testing.AllocsPerRun(1000, func() {
		ch.Send(msg)
		ch.TrySend(msg)
		ch.Recv()
		ch.TryRecv()
	})
	if got != 0 {
		t.Errorf("send+receive: %v allocations, want 0", got)
	}
}
