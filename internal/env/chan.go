package env

// chanImpl implements Chan for any Env using only the Env's Mutex and Cond,
// so both the real and the simulated environment share one implementation.
//
// The queue is buf[head:]. The array is kept across drains, so a channel
// in steady use allocates nothing per message; pop slides the live tail
// back to the front once the drained prefix passes half of buf, and lets
// an array larger than maxKeptSlots go once the queue is empty, so a
// one-off burst or catch-up backlog is not held for good.
type chanImpl struct {
	mu       Mutex
	notEmpty Cond
	notFull  Cond
	buf      []any
	head     int
	capacity int // <= 0 means unbounded
	closed   bool
}

// NewChanFor builds the shared Chan implementation on top of any Env's
// mutex and cond primitives. Env implementations outside this package use
// it to satisfy NewChan.
func NewChanFor(e Env, capacity int) Chan { return newChan(e, capacity) }

func newChan(e Env, capacity int) *chanImpl {
	c := &chanImpl{capacity: capacity}
	c.mu = e.NewMutex()
	c.notEmpty = e.NewCond(c.mu)
	c.notFull = e.NewCond(c.mu)
	return c
}

// maxKeptSlots is the largest queue array an empty channel keeps.
const maxKeptSlots = 1024

func (c *chanImpl) queued() int { return len(c.buf) - c.head }

func (c *chanImpl) full() bool {
	return c.capacity > 0 && c.queued() >= c.capacity
}

// Send implements Chan.
func (c *chanImpl) Send(v any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.full() && !c.closed {
		c.notFull.Wait()
	}
	if c.closed {
		return false
	}
	c.buf = append(c.buf, v)
	c.notEmpty.Signal()
	return true
}

// TrySend implements Chan.
func (c *chanImpl) TrySend(v any) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.full() {
		return false
	}
	c.buf = append(c.buf, v)
	c.notEmpty.Signal()
	return true
}

// Recv implements Chan.
func (c *chanImpl) Recv() (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.queued() == 0 && !c.closed {
		c.notEmpty.Wait()
	}
	if c.queued() == 0 {
		return nil, false
	}
	v := c.pop()
	return v, true
}

// TryRecv implements Chan.
func (c *chanImpl) TryRecv() (any, bool, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.queued() == 0 {
		return nil, false, !c.closed
	}
	v := c.pop()
	return v, true, true
}

func (c *chanImpl) pop() any {
	v := c.buf[c.head]
	c.buf[c.head] = nil
	c.head++
	if c.head > len(c.buf)/2 {
		n := copy(c.buf, c.buf[c.head:])
		clear(c.buf[n:])
		c.buf, c.head = c.buf[:n], 0
		if n == 0 && cap(c.buf) > maxKeptSlots {
			c.buf = nil
		}
	}
	c.notFull.Signal()
	return v
}

// Close implements Chan.
func (c *chanImpl) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.notEmpty.Broadcast()
	c.notFull.Broadcast()
}

// Len implements Chan.
func (c *chanImpl) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queued()
}
