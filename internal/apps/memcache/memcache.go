// Package memcache is a memcached-style object cache (§6.3): a single hash
// table plus LRU, protected by three global locks (cache, slabs, stats),
// mirroring memcached's cache_lock / slabs_lock / stats_lock. The critical
// sections are deliberately coarse — the paper's negative result: the
// application does not scale even natively, so Rex cannot help it
// (Table 1: Lock, Cond).
package memcache

import (
	"container/list"
	"io"
	"time"

	"rex/internal/core"
	"rex/internal/rexsync"
	"rex/internal/sched"
	"rex/internal/wire"
)

// Op codes.
const (
	OpSet byte = 1
	OpGet byte = 2
	OpDel byte = 3
)

// Options configure the cache.
type Options struct {
	Capacity int // max items before LRU eviction
	// Costs spent INSIDE the global locks (the scaling killer).
	HashCost  time.Duration
	SlabCost  time.Duration
	StatsCost time.Duration
	// MaintainEvery is the slab-maintenance background task period.
	MaintainEvery time.Duration
}

// DefaultOptions reproduce memcached's coarse-grained behaviour.
func DefaultOptions() Options {
	return Options{
		Capacity:      1 << 18,
		HashCost:      60 * time.Microsecond,
		SlabCost:      20 * time.Microsecond,
		StatsCost:     5 * time.Microsecond,
		MaintainEvery: 50 * time.Millisecond,
	}
}

// Timers reports the number of background tasks the factory registers.
func Timers() int { return 1 }

// Primitives lists the Rex primitives used (Table 1).
func Primitives() []string { return []string{"Lock", "Cond"} }

type item struct {
	key string
	val []byte
	el  *list.Element
}

// Cache is the memcached-like state machine.
type Cache struct {
	opts Options

	cacheLock *rexsync.Lock // guards table + lru
	table     map[string]*item
	lru       *list.List // front = most recent

	slabsLock  *rexsync.Lock // guards allocation accounting
	slabBytes  int64
	evictions  uint64
	maintained uint64
	maintCond  *rexsync.Cond // slab maintainer's wakeup bookkeeping

	statsLock *rexsync.Lock
	gets      uint64
	sets      uint64
	hits      uint64
}

// New returns a core.Factory for the cache. It registers one maintenance
// timer; pass Timers() as Config.Timers.
func New(opts Options) core.Factory {
	return func(rt *sched.Runtime, host *core.TimerHost) core.StateMachine {
		c := &Cache{
			opts:  opts,
			table: make(map[string]*item),
			lru:   list.New(),
		}
		c.cacheLock = rexsync.NewLock(rt, "mc-cache")
		c.slabsLock = rexsync.NewLock(rt, "mc-slabs")
		c.statsLock = rexsync.NewLock(rt, "mc-stats")
		c.maintCond = rexsync.NewCond(rt, "mc-maint", c.slabsLock)
		host.AddTimer("mc-maintain", opts.MaintainEvery, c.maintain)
		return c
	}
}

// maintain is the slab rebalancer: bookkeeping under the slabs lock.
func (c *Cache) maintain(ctx *core.Ctx) {
	w := ctx.Worker()
	c.slabsLock.Lock(w)
	ctx.Compute(c.opts.SlabCost)
	c.maintained++
	// Wake anything waiting for slab pressure to drop (none in the
	// default workload, but the paper lists Cond for memcached).
	c.maintCond.Broadcast(w)
	c.slabsLock.Unlock(w)
}

// Apply implements core.StateMachine.
func (c *Cache) Apply(ctx *core.Ctx, req []byte) []byte {
	w := ctx.Worker()
	d := wire.NewDecoder(req)
	op := d.Byte()
	key := d.String()
	switch op {
	case OpSet:
		val := append([]byte(nil), d.BytesVal()...)
		// Slab allocation under the global slabs lock.
		c.slabsLock.Lock(w)
		ctx.Compute(c.opts.SlabCost)
		c.slabBytes += int64(len(key) + len(val))
		c.slabsLock.Unlock(w)
		// Hash insert + LRU under the global cache lock; the hash work
		// happens inside the lock, as in memcached.
		c.cacheLock.Lock(w)
		ctx.Compute(c.opts.HashCost)
		if it, ok := c.table[key]; ok {
			it.val = val
			c.lru.MoveToFront(it.el)
		} else {
			it := &item{key: key, val: val}
			it.el = c.lru.PushFront(it)
			c.table[key] = it
			if c.lru.Len() > c.opts.Capacity {
				back := c.lru.Back()
				victim := back.Value.(*item)
				c.lru.Remove(back)
				delete(c.table, victim.key)
				c.evictions++
			}
		}
		c.cacheLock.Unlock(w)
		c.statsLock.Lock(w)
		ctx.Compute(c.opts.StatsCost)
		c.sets++
		c.statsLock.Unlock(w)
		return []byte{1}
	case OpGet:
		c.cacheLock.Lock(w)
		ctx.Compute(c.opts.HashCost)
		it, ok := c.table[key]
		var val []byte
		if ok {
			val = it.val
			c.lru.MoveToFront(it.el)
		}
		c.cacheLock.Unlock(w)
		c.statsLock.Lock(w)
		ctx.Compute(c.opts.StatsCost)
		c.gets++
		if ok {
			c.hits++
		}
		c.statsLock.Unlock(w)
		e := wire.NewEncoder(nil)
		e.Bool(ok)
		e.BytesVal(val)
		return e.Bytes()
	case OpDel:
		c.cacheLock.Lock(w)
		ctx.Compute(c.opts.HashCost)
		if it, ok := c.table[key]; ok {
			c.lru.Remove(it.el)
			delete(c.table, key)
		}
		c.cacheLock.Unlock(w)
		return []byte{1}
	}
	return []byte{0xff}
}

// Query implements core.QueryHandler. Note: a memcached Get mutates the
// LRU, which would pollute replicated state if run natively; queries
// therefore read without touching recency (like a peek).
func (c *Cache) Query(ctx *core.Ctx, q []byte) []byte {
	w := ctx.Worker()
	d := wire.NewDecoder(q)
	_ = d.Byte()
	key := d.String()
	c.cacheLock.Lock(w)
	it, ok := c.table[key]
	var val []byte
	if ok {
		val = it.val
	}
	c.cacheLock.Unlock(w)
	e := wire.NewEncoder(nil)
	e.Bool(ok)
	e.BytesVal(val)
	return e.Bytes()
}

// ClassifyQuery implements core.QueryClassifier: always primary-only. A
// memcached get is not idempotent — Apply(OpGet) moves the item to the
// LRU front, so the "read" is semantically a write. Serving even the
// non-mutating peek from a secondary would advertise hits whose recency
// the replicated state never recorded, so cache reads are pinned to the
// primary (which sees the authoritative LRU).
func (c *Cache) ClassifyQuery([]byte) core.QueryClass { return core.QueryPrimaryOnly }

// ClassifyConflict implements core.ConflictClassifier: keys partition
// into 256 hash classes for deterministic dispatch. No lock is
// class-owned — every op serializes on the global cache/slabs/stats
// locks, so distinct key classes still share all mutable state and
// elision would be unsound. This is the paper's negative case: a
// globally-locked server gains nothing from conflict classes, and the
// fully-traced global locks keep it correct anyway.
func (c *Cache) ClassifyConflict(req []byte) core.ConflictClass {
	d := wire.NewDecoder(req)
	op := d.Byte()
	key := d.String()
	if d.Err() != nil {
		return core.ConflictAll
	}
	switch op {
	case OpSet, OpGet, OpDel:
		h := uint32(2166136261)
		for i := 0; i < len(key); i++ {
			h = (h ^ uint32(key[i])) * 16777619
		}
		return core.ConflictClass(h%256) + 1
	}
	return core.ConflictAll
}

// WriteCheckpoint implements core.StateMachine.
func (c *Cache) WriteCheckpoint(w io.Writer) error {
	e := wire.NewEncoder(nil)
	e.Varint(c.slabBytes)
	e.Uvarint(c.evictions)
	e.Uvarint(c.gets)
	e.Uvarint(c.sets)
	e.Uvarint(c.hits)
	e.Uvarint(uint64(c.lru.Len()))
	// Serialize in LRU order (front to back): order is part of state.
	for el := c.lru.Front(); el != nil; el = el.Next() {
		it := el.Value.(*item)
		e.String(it.key)
		e.BytesVal(it.val)
	}
	_, err := w.Write(e.Bytes())
	return err
}

// ReadCheckpoint implements core.StateMachine.
func (c *Cache) ReadCheckpoint(r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	d := wire.NewDecoder(buf)
	c.slabBytes = d.Varint()
	c.evictions = d.Uvarint()
	c.gets = d.Uvarint()
	c.sets = d.Uvarint()
	c.hits = d.Uvarint()
	n := d.Count(2) // a key length and a value length at least
	c.table = make(map[string]*item, n)
	c.lru = list.New()
	for j := 0; j < n && d.Err() == nil; j++ {
		it := &item{key: d.String()}
		it.val = append([]byte(nil), d.BytesVal()...)
		it.el = c.lru.PushBack(it)
		c.table[it.key] = it
	}
	return d.Err()
}

// SetReq encodes a set.
func SetReq(key string, val []byte) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(OpSet)
	e.String(key)
	e.BytesVal(val)
	return e.Bytes()
}

// GetReq encodes a get.
func GetReq(key string) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(OpGet)
	e.String(key)
	return e.Bytes()
}

// DelReq encodes a delete.
func DelReq(key string) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(OpDel)
	e.String(key)
	return e.Bytes()
}
