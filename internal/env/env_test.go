package env

import (
	"sync"
	"testing"
	"time"
)

func TestRealNowMonotonic(t *testing.T) {
	e := NewReal()
	a := e.Now()
	time.Sleep(2 * time.Millisecond)
	b := e.Now()
	if b <= a {
		t.Errorf("Now not monotonic: %v then %v", a, b)
	}
}

func TestRealComputeTakesTime(t *testing.T) {
	e := NewReal()
	start := time.Now()
	e.Compute(5 * time.Millisecond)
	if got := time.Since(start); got < 4*time.Millisecond {
		t.Errorf("Compute(5ms) returned after %v", got)
	}
}

func TestRealMutexAndCond(t *testing.T) {
	e := NewReal()
	mu := e.NewMutex()
	cond := e.NewCond(mu)
	done := make(chan struct{})
	ready := false
	go func() {
		mu.Lock()
		for !ready {
			cond.Wait()
		}
		mu.Unlock()
		close(done)
	}()
	time.Sleep(time.Millisecond)
	mu.Lock()
	ready = true
	cond.Signal()
	mu.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cond wait never woke")
	}
}

func TestRealTryLock(t *testing.T) {
	e := NewReal()
	mu := e.NewMutex()
	if !mu.TryLock() {
		t.Fatal("TryLock on free mutex failed")
	}
	if mu.TryLock() {
		t.Fatal("TryLock on held mutex succeeded")
	}
	mu.Unlock()
}

func TestChanFIFO(t *testing.T) {
	e := NewReal()
	ch := e.NewChan(0) // unbounded
	for i := 0; i < 100; i++ {
		if !ch.Send(i) {
			t.Fatal("Send failed on open chan")
		}
	}
	if ch.Len() != 100 {
		t.Fatalf("Len = %d, want 100", ch.Len())
	}
	for i := 0; i < 100; i++ {
		v, ok := ch.Recv()
		if !ok || v.(int) != i {
			t.Fatalf("Recv = %v,%v, want %d,true", v, ok, i)
		}
	}
}

func TestChanCapacityBlocksSender(t *testing.T) {
	e := NewReal()
	ch := e.NewChan(1)
	ch.Send(1)
	if ch.TrySend(2) {
		t.Fatal("TrySend succeeded on full chan")
	}
	unblocked := make(chan struct{})
	go func() {
		ch.Send(2) // blocks until a Recv
		close(unblocked)
	}()
	time.Sleep(time.Millisecond)
	select {
	case <-unblocked:
		t.Fatal("Send did not block on full chan")
	default:
	}
	if v, _ := ch.Recv(); v.(int) != 1 {
		t.Fatalf("Recv = %v, want 1", v)
	}
	select {
	case <-unblocked:
	case <-time.After(5 * time.Second):
		t.Fatal("Send never unblocked")
	}
}

func TestChanCloseDrainsThenReportsClosed(t *testing.T) {
	e := NewReal()
	ch := e.NewChan(0)
	ch.Send(1)
	ch.Send(2)
	ch.Close()
	if ch.Send(3) {
		t.Error("Send after Close returned true")
	}
	if v, ok := ch.Recv(); !ok || v.(int) != 1 {
		t.Errorf("Recv = %v,%v want 1,true", v, ok)
	}
	if v, ok, open := ch.TryRecv(); !ok || !open || v.(int) != 2 {
		t.Errorf("TryRecv = %v,%v,%v want 2,true,true", v, ok, open)
	}
	if _, ok := ch.Recv(); ok {
		t.Error("Recv on drained closed chan reported ok")
	}
	if _, ok, open := ch.TryRecv(); ok || open {
		t.Error("TryRecv on drained closed chan reported ok/open")
	}
}

func TestChanCloseWakesBlockedReceiver(t *testing.T) {
	e := NewReal()
	ch := e.NewChan(0)
	done := make(chan bool)
	go func() {
		_, ok := ch.Recv()
		done <- ok
	}()
	time.Sleep(time.Millisecond)
	ch.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Recv on closed empty chan reported ok")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not wake receiver")
	}
}

func TestGroupWait(t *testing.T) {
	e := NewReal()
	var mu sync.Mutex
	n := 0
	g := GoEach(e, "w", 8, func(int) {
		mu.Lock()
		n++
		mu.Unlock()
	})
	g.Wait()
	mu.Lock()
	defer mu.Unlock()
	if n != 8 {
		t.Errorf("n = %d, want 8", n)
	}
}

func TestGroupNegativePanics(t *testing.T) {
	e := NewReal()
	g := NewGroup(e)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative counter")
		}
	}()
	g.Done()
}

func TestAfterFuncReal(t *testing.T) {
	e := NewReal()
	done := make(chan struct{})
	e.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("AfterFunc never fired")
	}
}

// TestChanFIFOAcrossCompaction interleaves sends and receives so the queue
// drains partly, compacts and regrows many times, and checks the order.
func TestChanFIFOAcrossCompaction(t *testing.T) {
	ch := NewReal().NewChan(0)
	sent, got := 0, 0
	for round := 0; round < 200; round++ {
		for i := 0; i < round%7+1; i++ {
			ch.Send(sent)
			sent++
		}
		for i := 0; i < round%5+1; i++ {
			v, ok, _ := ch.TryRecv()
			if !ok {
				break
			}
			if v.(int) != got {
				t.Fatalf("received %v, want %d", v, got)
			}
			got++
		}
		if ch.Len() != sent-got {
			t.Fatalf("Len = %d, want %d", ch.Len(), sent-got)
		}
	}
	for got < sent {
		if v, _ := ch.Recv(); v.(int) != got {
			t.Fatalf("received %v, want %d", v, got)
		}
		got++
	}
}

// TestChanDropsBurstArray checks that an emptied channel keeps a small
// queue array for reuse but lets the array of a large burst go.
func TestChanDropsBurstArray(t *testing.T) {
	c := newChan(NewReal(), 0)
	for _, burst := range []struct {
		n    int
		kept bool
	}{{8, true}, {4 * maxKeptSlots, false}, {8, true}} {
		for i := 0; i < burst.n; i++ {
			c.Send(i)
		}
		for i := 0; i < burst.n; i++ {
			if v, _ := c.Recv(); v.(int) != i {
				t.Fatalf("burst %d: received %v, want %d", burst.n, v, i)
			}
		}
		if kept := cap(c.buf) > 0; kept != burst.kept {
			t.Errorf("burst %d: array of %d slots kept = %v, want %v", burst.n, cap(c.buf), kept, burst.kept)
		}
	}
}

// TestChanConcurrentSendersKeepOrder runs several senders and receivers
// on one bounded channel, so sends block, the queue wraps and compacts
// under contention, and checks that every value arrives exactly once and
// each sender's values in the order it sent them.
func TestChanConcurrentSendersKeepOrder(t *testing.T) {
	const senders, receivers, each = 4, 3, 2000
	ch := NewReal().NewChan(5)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ch.Send([2]int{s, i})
			}
		}(s)
	}
	got := make(chan [][2]int, receivers)
	for r := 0; r < receivers; r++ {
		go func() {
			var mine [][2]int
			for {
				v, ok := ch.Recv()
				if !ok {
					got <- mine
					return
				}
				mine = append(mine, v.([2]int))
			}
		}()
	}
	wg.Wait()
	ch.Close()
	count := 0
	for r := 0; r < receivers; r++ {
		last := [senders]int{-1, -1, -1, -1}
		for _, v := range <-got {
			// One receiver sees each sender's values in increasing order.
			if v[1] <= last[v[0]] {
				t.Fatalf("sender %d: value %d after %d", v[0], v[1], last[v[0]])
			}
			last[v[0]] = v[1]
			count++
		}
	}
	if count != senders*each {
		t.Fatalf("received %d values, want %d", count, senders*each)
	}
}
