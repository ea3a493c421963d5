// Package hashdb is a Kyoto-Cabinet-style hash database (§6.3): the key
// space is divided into 1024 slices, each protected by a Rex
// readers–writer lock, plus a metadata lock and a condition variable used
// by the periodic auto-sync barrier (Table 1: Lock, Cond, ReadWriteLock).
package hashdb

import (
	"fmt"
	"io"
	"sort"
	"time"

	"rex/internal/core"
	"rex/internal/rexsync"
	"rex/internal/sched"
	"rex/internal/shard"
	"rex/internal/wire"
)

// Op codes.
const (
	OpSet byte = 1
	OpGet byte = 2
	OpDel byte = 3
	// OpSweep scans every slice (a whole-table stat pass). It touches all
	// slice locks, so it classifies as catch-all and runs under the
	// conflict-class dispatch barrier.
	OpSweep byte = 4
)

// Options configure the database.
type Options struct {
	Slices    int
	SyncEvery time.Duration
	SyncCost  time.Duration
	SetCost   time.Duration
	GetCost   time.Duration
}

// DefaultOptions mirror Kyoto Cabinet's 1024-slice layout.
func DefaultOptions() Options {
	return Options{
		Slices:    1024,
		SyncEvery: 25 * time.Millisecond,
		SyncCost:  200 * time.Microsecond,
		SetCost:   50 * time.Microsecond,
		GetCost:   35 * time.Microsecond,
	}
}

// Timers reports the number of background tasks the factory registers.
func Timers() int { return 1 }

// Primitives lists the Rex primitives used (Table 1).
func Primitives() []string { return []string{"Lock", "Cond", "ReadWriteLock"} }

// DB is the hash-database state machine.
type DB struct {
	opts   Options
	locks  []*rexsync.RWLock
	slices []map[string][]byte

	// meta guards record counting and the auto-sync barrier; writers wait
	// on syncDone while a sync is in progress.
	meta     *rexsync.Lock
	syncDone *rexsync.Cond
	count    int64
	dirty    int64
	syncing  bool
	syncs    uint64
}

// New returns a core.Factory for the database. It registers one auto-sync
// timer; pass Timers() as Config.Timers.
func New(opts Options) core.Factory {
	return func(rt *sched.Runtime, host *core.TimerHost) core.StateMachine {
		db := &DB{opts: opts}
		for i := 0; i < opts.Slices; i++ {
			// Slice i is owned by conflict class i+1 (matching
			// ClassifyConflict): only that class's handlers, barriered
			// catch-all sweeps, and native-mode readers touch it, and the
			// auto-sync timer never does — so single-key ops elide the
			// slice-lock events from the trace.
			db.locks = append(db.locks, rexsync.NewRWLockInClass(rt, fmt.Sprintf("hdb-slice-%d", i), uint32(i)+1))
			db.slices = append(db.slices, make(map[string][]byte))
		}
		db.meta = rexsync.NewLock(rt, "hdb-meta")
		db.syncDone = rexsync.NewCond(rt, "hdb-sync-done", db.meta)
		host.AddTimer("hdb-sync", opts.SyncEvery, db.autoSync)
		return db
	}
}

func (db *DB) slice(key string) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(db.opts.Slices))
}

// autoSync is Kyoto Cabinet's periodic msync stand-in: it briefly blocks
// metadata writers while "flushing".
func (db *DB) autoSync(ctx *core.Ctx) {
	w := ctx.Worker()
	db.meta.Lock(w)
	if db.dirty == 0 {
		db.meta.Unlock(w)
		return
	}
	db.syncing = true
	dirty := db.dirty
	db.meta.Unlock(w)

	// Flush cost proportional to dirtiness, outside the lock.
	cost := time.Duration(dirty) * db.opts.SyncCost / 64
	if cost > 4*db.opts.SyncCost {
		cost = 4 * db.opts.SyncCost
	}
	ctx.Compute(db.opts.SyncCost + cost)

	db.meta.Lock(w)
	db.dirty = 0
	db.syncing = false
	db.syncs++
	db.syncDone.Broadcast(w)
	db.meta.Unlock(w)
}

// Apply implements core.StateMachine.
func (db *DB) Apply(ctx *core.Ctx, req []byte) []byte {
	w := ctx.Worker()
	d := wire.NewDecoder(req)
	op := d.Byte()
	key := d.String()
	sl := db.slice(key)
	switch op {
	case OpSet:
		val := append([]byte(nil), d.BytesVal()...)
		ctx.Compute(db.opts.SetCost)
		db.locks[sl].Lock(w)
		_, existed := db.slices[sl][key]
		db.slices[sl][key] = val
		db.locks[sl].Unlock(w)
		db.meta.Lock(w)
		for db.syncing {
			db.syncDone.Wait(w)
		}
		if !existed {
			db.count++
		}
		db.dirty++
		db.meta.Unlock(w)
		return []byte{1}
	case OpGet:
		ctx.Compute(db.opts.GetCost)
		db.locks[sl].RLock(w)
		v, ok := db.slices[sl][key]
		db.locks[sl].RUnlock(w)
		e := wire.NewEncoder(nil)
		e.Bool(ok)
		e.BytesVal(v)
		return e.Bytes()
	case OpDel:
		ctx.Compute(db.opts.SetCost)
		db.locks[sl].Lock(w)
		_, existed := db.slices[sl][key]
		delete(db.slices[sl], key)
		db.locks[sl].Unlock(w)
		if existed {
			db.meta.Lock(w)
			for db.syncing {
				db.syncDone.Wait(w)
			}
			db.count--
			db.dirty++
			db.meta.Unlock(w)
		}
		return []byte{1}
	case OpSweep:
		// Whole-table stat pass: read-lock every slice in order and total
		// the keys and value bytes. Both totals are order-independent, so
		// the response is deterministic despite map iteration.
		var keys, bytes uint64
		for i := range db.slices {
			db.locks[i].RLock(w)
			for _, v := range db.slices[i] {
				keys++
				bytes += uint64(len(v))
			}
			db.locks[i].RUnlock(w)
		}
		e := wire.NewEncoder(nil)
		e.Uvarint(keys)
		e.Uvarint(bytes)
		return e.Bytes()
	}
	return []byte{0xff}
}

// ClassifyConflict implements core.ConflictClassifier: single-key ops
// conflict only within their slice (class = slice index + 1); a sweep —
// or any unknown op — may touch everything and classifies as catch-all.
// The meta lock and sync condition variable are shared across classes,
// but they are not class-owned, so their events stay fully traced and
// cross-class ordering through them is preserved.
func (db *DB) ClassifyConflict(req []byte) core.ConflictClass {
	d := wire.NewDecoder(req)
	op := d.Byte()
	key := d.String()
	if d.Err() != nil {
		return core.ConflictAll
	}
	switch op {
	case OpSet, OpGet, OpDel:
		return core.ConflictClass(db.slice(key)) + 1
	}
	return core.ConflictAll
}

// Query implements core.QueryHandler: unreplicated reads.
func (db *DB) Query(ctx *core.Ctx, q []byte) []byte {
	return db.Apply(ctx, q)
}

// ClassifyQuery implements core.QueryClassifier. Gets read under the
// slice RW locks without touching any state, so secondaries may serve
// them; a set or delete smuggled through Query would fork the replica's
// state from the committed trace and stays primary-only.
func (db *DB) ClassifyQuery(q []byte) core.QueryClass {
	if len(q) > 0 && q[0] == OpGet {
		return core.QueryFollowerOK
	}
	return core.QueryPrimaryOnly
}

// checkpointChunk is how many encoded bytes WriteCheckpoint gathers
// before writing them to w.
const checkpointChunk = 32 << 10

// WriteCheckpoint implements core.StateMachine. The slices stream through
// one pooled encoder, written out every checkpointChunk bytes, so the
// state is copied once, into w, and never staged whole.
func (db *DB) WriteCheckpoint(w io.Writer) error {
	e := wire.GetEncoder(checkpointChunk)
	defer e.Release()
	e.Varint(db.count)
	e.Varint(db.dirty)
	e.Uvarint(db.syncs)
	var keys []string
	for _, m := range db.slices {
		keys = keys[:0]
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.String(k)
			e.BytesVal(m[k])
		}
		if e.Len() >= checkpointChunk {
			if _, err := w.Write(e.Bytes()); err != nil {
				return err
			}
			e.Reset()
		}
	}
	_, err := w.Write(e.Bytes())
	return err
}

// ReadCheckpoint implements core.StateMachine.
func (db *DB) ReadCheckpoint(r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	d := wire.NewDecoder(buf)
	db.count = d.Varint()
	db.dirty = d.Varint()
	db.syncs = d.Uvarint()
	for i := 0; i < len(db.slices) && d.Err() == nil; i++ {
		n := d.Count(2) // a key length and a value length at least
		db.slices[i] = make(map[string][]byte, n)
		for j := 0; j < n && d.Err() == nil; j++ {
			k := d.String()
			db.slices[i][k] = append([]byte(nil), d.BytesVal()...)
		}
	}
	return d.Err()
}

// inRange reports whether key's shard hash lies in [lo, hi].
func inRange(key string, lo, hi uint64) bool {
	h := shard.HashKey([]byte(key))
	return lo <= h && h <= hi
}

// ExportRange implements core.RangeStateMachine: it serializes every key
// whose shard hash lies in [lo, hi], slice by slice with keys sorted, so
// the blob is deterministic despite map iteration. It touches every
// slice lock, like a sweep; the rebalance wrapper runs it as a catch-all
// replicated op or under a linearizable query's drained barrier.
func (db *DB) ExportRange(ctx *core.Ctx, lo, hi uint64) []byte {
	w := ctx.Worker()
	e := wire.NewEncoder(nil)
	for i := range db.slices {
		db.locks[i].RLock(w)
		keys := make([]string, 0, 8)
		for k := range db.slices[i] {
			if inRange(k, lo, hi) {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.String(k)
			e.BytesVal(db.slices[i][k])
		}
		db.locks[i].RUnlock(w)
	}
	return e.Bytes()
}

// ImportRange implements core.RangeStateMachine, merging a blob written
// by ExportRange (overwriting existing keys).
func (db *DB) ImportRange(ctx *core.Ctx, blob []byte) {
	w := ctx.Worker()
	d := wire.NewDecoder(blob)
	var added int64
	for i := range db.slices {
		n := d.Uvarint()
		if n == 0 || d.Err() != nil {
			continue
		}
		db.locks[i].Lock(w)
		for j := uint64(0); j < n && d.Err() == nil; j++ {
			k := d.String()
			v := append([]byte(nil), d.BytesVal()...)
			if _, existed := db.slices[i][k]; !existed {
				added++
			}
			db.slices[i][k] = v
		}
		db.locks[i].Unlock(w)
	}
	db.meta.Lock(w)
	db.count += added
	db.dirty += added
	db.meta.Unlock(w)
}

// DropRange implements core.RangeStateMachine, deleting every key whose
// shard hash lies in [lo, hi]. The set of deleted keys is a pure
// function of the state, so the result is deterministic despite map
// iteration order.
func (db *DB) DropRange(ctx *core.Ctx, lo, hi uint64) {
	w := ctx.Worker()
	var removed int64
	for i := range db.slices {
		db.locks[i].Lock(w)
		var doomed []string
		for k := range db.slices[i] {
			if inRange(k, lo, hi) {
				doomed = append(doomed, k)
			}
		}
		for _, k := range doomed {
			delete(db.slices[i], k)
			removed++
		}
		db.locks[i].Unlock(w)
	}
	if removed > 0 {
		db.meta.Lock(w)
		db.count -= removed
		db.dirty += removed
		db.meta.Unlock(w)
	}
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

// SweepReq encodes a whole-table sweep (catch-all conflict class).
func SweepReq() []byte {
	e := wire.NewEncoder(nil)
	e.Byte(OpSweep)
	e.String("")
	return e.Bytes()
}
