// Package lsmkv is a from-scratch log-structured-merge key/value store
// standing in for LevelDB in the paper's evaluation (§6.3). The key space
// is divided into slices, each a small LSM tree: an in-memory memtable,
// rotated into immutable sorted runs, merged by a background compaction
// task registered through Rex's AddTimer — the paper's canonical example
// of a background task that must pause at checkpoints (§3.3). Writers
// stall on a Rex condition variable when a slice accumulates too many
// unmerged runs, exactly like LevelDB's write stalls (Table 1: Lock, Cond).
package lsmkv

import (
	"fmt"
	"io"
	"sort"
	"time"

	"rex/internal/core"
	"rex/internal/rexsync"
	"rex/internal/sched"
	"rex/internal/wire"
)

// Op codes.
const (
	OpPut byte = 1
	OpGet byte = 2
	OpDel byte = 3
)

// Options configure the store.
type Options struct {
	Slices int
	// FlushBytes rotates a slice's memtable into an immutable run.
	FlushBytes int
	// StallRuns blocks writers while a slice has this many pending runs.
	StallRuns int
	// CompactEvery is the background compaction period.
	CompactEvery time.Duration
	// CPU cost model.
	PutCost, GetCost time.Duration
	CompactPerKey    time.Duration
}

// DefaultOptions mirror the paper's 256-slice configuration.
func DefaultOptions() Options {
	return Options{
		Slices:        256,
		FlushBytes:    16 << 10,
		StallRuns:     6,
		CompactEvery:  10 * time.Millisecond,
		PutCost:       60 * time.Microsecond,
		GetCost:       40 * time.Microsecond,
		CompactPerKey: 300 * time.Nanosecond,
	}
}

// Timers reports the number of background tasks the factory registers.
func Timers() int { return 1 }

// Primitives lists the Rex primitives used (Table 1).
func Primitives() []string { return []string{"Lock", "Cond"} }

// run is an immutable sorted string table.
type run struct {
	keys []string
	vals [][]byte // nil value = tombstone
}

func (r *run) get(key string) ([]byte, bool) {
	i := sort.SearchStrings(r.keys, key)
	if i < len(r.keys) && r.keys[i] == key {
		return r.vals[i], true
	}
	return nil, false
}

// slice is one shard's LSM tree; all fields are guarded by lock.
type slice struct {
	lock     *rexsync.Lock
	stall    *rexsync.Cond
	mem      map[string][]byte
	memBytes int
	runs     []*run // newest first
}

// Store is the LSM state machine.
type Store struct {
	opts   Options
	slices []*slice
}

// New returns a core.Factory for the store. It registers one background
// compaction timer; pass Timers() as Config.Timers.
func New(opts Options) core.Factory {
	return func(rt *sched.Runtime, host *core.TimerHost) core.StateMachine {
		s := &Store{opts: opts}
		for i := 0; i < opts.Slices; i++ {
			l := rexsync.NewLock(rt, fmt.Sprintf("lsm-slice-%d", i))
			s.slices = append(s.slices, &slice{
				lock:  l,
				stall: rexsync.NewCond(rt, fmt.Sprintf("lsm-stall-%d", i), l),
				mem:   make(map[string][]byte),
			})
		}
		host.AddTimer("lsm-compact", opts.CompactEvery, s.compact)
		return s
	}
}

func (s *Store) slice(key string) *slice {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return s.slices[h%uint32(s.opts.Slices)]
}

// rotateLocked turns the memtable into a sorted immutable run. Caller
// holds the slice lock.
func (sl *slice) rotateLocked() {
	if len(sl.mem) == 0 {
		return
	}
	r := &run{keys: make([]string, 0, len(sl.mem)), vals: make([][]byte, 0, len(sl.mem))}
	for k := range sl.mem {
		r.keys = append(r.keys, k)
	}
	sort.Strings(r.keys)
	for _, k := range r.keys {
		r.vals = append(r.vals, sl.mem[k])
	}
	sl.runs = append([]*run{r}, sl.runs...)
	sl.mem = make(map[string][]byte)
	sl.memBytes = 0
}

// compact is the background task: it merges each slice's runs down to one
// and wakes stalled writers (LevelDB's compaction thread).
func (s *Store) compact(ctx *core.Ctx) {
	w := ctx.Worker()
	for _, sl := range s.slices {
		sl.lock.Lock(w)
		if sl.memBytes >= s.opts.FlushBytes {
			sl.rotateLocked()
		}
		if len(sl.runs) > 1 {
			merged := mergeRuns(sl.runs)
			// Charge CPU proportional to the merged volume.
			ctx.Compute(time.Duration(len(merged.keys)) * s.opts.CompactPerKey)
			sl.runs = []*run{merged}
			sl.stall.Broadcast(w)
		}
		sl.lock.Unlock(w)
	}
}

// mergeRuns merges newest-first runs, newest value winning; tombstones are
// dropped from the final run.
func mergeRuns(runs []*run) *run {
	seen := make(map[string]int) // key → index of newest run containing it
	var keys []string
	for ri, r := range runs {
		for _, k := range r.keys {
			if _, ok := seen[k]; !ok {
				seen[k] = ri
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	out := &run{}
	for _, k := range keys {
		v, _ := runs[seen[k]].get(k)
		if v == nil {
			continue // tombstone
		}
		out.keys = append(out.keys, k)
		out.vals = append(out.vals, v)
	}
	return out
}

// getLocked looks a key up through the LSM hierarchy. Caller holds the
// slice lock.
func (sl *slice) getLocked(key string) ([]byte, bool) {
	if v, ok := sl.mem[key]; ok {
		return v, v != nil
	}
	for _, r := range sl.runs {
		if v, ok := r.get(key); ok {
			return v, v != nil
		}
	}
	return nil, false
}

// Apply implements core.StateMachine.
func (s *Store) Apply(ctx *core.Ctx, req []byte) []byte {
	w := ctx.Worker()
	d := wire.NewDecoder(req)
	op := d.Byte()
	key := d.String()
	sl := s.slice(key)
	switch op {
	case OpPut, OpDel:
		var val []byte
		if op == OpPut {
			val = append([]byte(nil), d.BytesVal()...)
		}
		ctx.Compute(s.opts.PutCost)
		sl.lock.Lock(w)
		for len(sl.runs) >= s.opts.StallRuns {
			// Write stall: wait for the compaction task (Cond, Table 1).
			sl.stall.Wait(w)
		}
		sl.mem[key] = val
		sl.memBytes += len(key) + len(val) + 16
		if sl.memBytes >= s.opts.FlushBytes {
			sl.rotateLocked()
		}
		sl.lock.Unlock(w)
		return []byte{1}
	case OpGet:
		ctx.Compute(s.opts.GetCost)
		sl.lock.Lock(w)
		v, ok := sl.getLocked(key)
		sl.lock.Unlock(w)
		e := wire.NewEncoder(nil)
		e.Bool(ok)
		e.BytesVal(v)
		return e.Bytes()
	}
	return []byte{0xff}
}

// Query implements core.QueryHandler: unreplicated reads.
func (s *Store) Query(ctx *core.Ctx, q []byte) []byte {
	return s.Apply(ctx, q)
}

// ClassifyQuery implements core.QueryClassifier. Gets walk the memtable
// and runs read-only, so secondaries may serve them; puts and deletes
// reached through Query stay primary-only.
func (s *Store) ClassifyQuery(q []byte) core.QueryClass {
	if len(q) > 0 && q[0] == OpGet {
		return core.QueryFollowerOK
	}
	return core.QueryPrimaryOnly
}

// ClassifyConflict implements core.ConflictClassifier: single-key ops
// conflict only within their slice (class = slice index + 1), which gives
// same-slice requests deterministic per-thread serialization. The slice
// locks themselves stay UNOWNED — the compaction timer takes every one of
// them, which the class-ownership contract forbids — so classification
// here buys dispatch locality but no event elision (the paper's §4.2
// trade-off shows up as a negative result for compaction-style apps).
func (s *Store) ClassifyConflict(req []byte) core.ConflictClass {
	d := wire.NewDecoder(req)
	op := d.Byte()
	key := d.String()
	if d.Err() != nil {
		return core.ConflictAll
	}
	switch op {
	case OpPut, OpGet, OpDel:
		h := uint32(2166136261)
		for i := 0; i < len(key); i++ {
			h = (h ^ uint32(key[i])) * 16777619
		}
		return core.ConflictClass(h%uint32(s.opts.Slices)) + 1
	}
	return core.ConflictAll
}

// checkpointChunk is how many encoded bytes WriteCheckpoint gathers
// before writing them to w.
const checkpointChunk = 32 << 10

// WriteCheckpoint implements core.StateMachine. The slices stream through
// one pooled encoder, written out every checkpointChunk bytes, so the
// state is copied once, into w, and never staged whole.
func (s *Store) WriteCheckpoint(w io.Writer) error {
	e := wire.GetEncoder(checkpointChunk)
	defer e.Release()
	var keys []string
	for _, sl := range s.slices {
		keys = keys[:0]
		for k := range sl.mem {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.String(k)
			v := sl.mem[k]
			e.Bool(v != nil)
			e.BytesVal(v)
		}
		e.Uvarint(uint64(len(sl.runs)))
		for _, r := range sl.runs {
			e.Uvarint(uint64(len(r.keys)))
			for i, k := range r.keys {
				e.String(k)
				e.Bool(r.vals[i] != nil)
				e.BytesVal(r.vals[i])
			}
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
func (s *Store) ReadCheckpoint(rd io.Reader) error {
	buf, err := io.ReadAll(rd)
	if err != nil {
		return err
	}
	d := wire.NewDecoder(buf)
	for _, sl := range s.slices {
		if d.Err() != nil {
			break
		}
		n := d.Count(3) // a key length, a flag and a value length at least
		sl.mem = make(map[string][]byte, n)
		sl.memBytes = 0
		for j := 0; j < n && d.Err() == nil; j++ {
			k := d.String()
			live := d.Bool()
			v := append([]byte(nil), d.BytesVal()...)
			if !live {
				v = nil
			}
			sl.mem[k] = v
			sl.memBytes += len(k) + len(v) + 16
		}
		nr := d.Count(1)
		sl.runs = nil
		for j := 0; j < nr && d.Err() == nil; j++ {
			nk := d.Count(3)
			r := &run{}
			for i := 0; i < nk && d.Err() == nil; i++ {
				r.keys = append(r.keys, d.String())
				live := d.Bool()
				v := append([]byte(nil), d.BytesVal()...)
				if !live {
					v = nil
				}
				r.vals = append(r.vals, v)
			}
			sl.runs = append(sl.runs, r)
		}
	}
	return d.Err()
}

// PutReq encodes a put.
func PutReq(key string, val []byte) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(OpPut)
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
