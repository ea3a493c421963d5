// Package thumbnail implements the paper's thumbnail server (§6.3): a
// compute-intensive service that renders picture thumbnails, keeps picture
// metadata in a sharded in-memory hash table, and caches rendered
// thumbnails in an LRU cache. All shared structures are protected by Rex
// locks (Table 1: Lock).
package thumbnail

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

// Op codes for request bodies.
const (
	OpMake byte = 1 // render a thumbnail: id, sourceLen
	OpStat byte = 2 // fetch metadata: id
)

// Options configure the server.
type Options struct {
	// MetaShards is the number of metadata hash-table shards (and locks).
	MetaShards int
	// CacheCap bounds the LRU thumbnail cache (entries).
	CacheCap int
	// RenderCost is the CPU time to render one thumbnail.
	RenderCost time.Duration
}

// DefaultOptions mirror the paper's compute-bound behaviour at simulation
// scale.
func DefaultOptions() Options {
	return Options{MetaShards: 64, CacheCap: 4096, RenderCost: 1 * time.Millisecond}
}

type meta struct {
	Renders uint32
	Digest  uint64
}

// Server is the thumbnail state machine.
type Server struct {
	opts Options

	shardLocks []*rexsync.Lock
	shards     []map[uint64]meta

	cacheLock *rexsync.Lock
	cache     map[uint64]uint64 // id → digest
	cacheLRU  []uint64          // simple FIFO-approximated LRU ring
}

// New returns a core.Factory for the thumbnail server.
func New(opts Options) core.Factory {
	return func(rt *sched.Runtime, host *core.TimerHost) core.StateMachine {
		s := &Server{opts: opts}
		for i := 0; i < opts.MetaShards; i++ {
			// Shard i is owned by conflict class i+1 (see ClassifyConflict):
			// only that class's handlers touch it and there are no timers,
			// so same-id requests elide the shard-lock events. The LRU cache
			// lock is shared by every class and stays unowned/fully traced.
			s.shardLocks = append(s.shardLocks, rexsync.NewLockInClass(rt, fmt.Sprintf("thumb-meta-%d", i), uint32(i)+1))
			s.shards = append(s.shards, make(map[uint64]meta))
		}
		s.cacheLock = rexsync.NewLock(rt, "thumb-cache")
		s.cache = make(map[uint64]uint64)
		return s
	}
}

// Primitives lists the Rex primitives used (Table 1).
func Primitives() []string { return []string{"Lock"} }

func (s *Server) shard(id uint64) int {
	return int((id * 0x9e3779b97f4a7c15) >> 40 % uint64(s.opts.MetaShards))
}

// render burns CPU proportional to the source size and produces a
// deterministic digest.
func (s *Server) render(ctx *core.Ctx, id, srcLen uint64) uint64 {
	ctx.Compute(s.opts.RenderCost)
	d := id ^ 0xdeadbeefcafef00d
	for i := uint64(0); i < 8; i++ {
		d = d*6364136223846793005 + srcLen + i
	}
	return d
}

// Apply implements core.StateMachine.
func (s *Server) Apply(ctx *core.Ctx, req []byte) []byte {
	w := ctx.Worker()
	d := wire.NewDecoder(req)
	op := d.Byte()
	id := d.Uvarint()
	switch op {
	case OpMake:
		srcLen := d.Uvarint()
		// Render outside any lock: the heavy compute must parallelize.
		digest := s.render(ctx, id, srcLen)
		sh := s.shard(id)
		s.shardLocks[sh].Lock(w)
		m := s.shards[sh][id]
		m.Renders++
		m.Digest = digest
		s.shards[sh][id] = m
		s.shardLocks[sh].Unlock(w)
		s.cacheLock.Lock(w)
		if _, ok := s.cache[id]; !ok {
			if len(s.cacheLRU) >= s.opts.CacheCap {
				evict := s.cacheLRU[0]
				s.cacheLRU = s.cacheLRU[1:]
				delete(s.cache, evict)
			}
			s.cacheLRU = append(s.cacheLRU, id)
		}
		s.cache[id] = digest
		s.cacheLock.Unlock(w)
		e := wire.NewEncoder(nil)
		e.Uvarint(digest)
		return e.Bytes()
	case OpStat:
		sh := s.shard(id)
		s.shardLocks[sh].Lock(w)
		m := s.shards[sh][id]
		s.shardLocks[sh].Unlock(w)
		e := wire.NewEncoder(nil)
		e.Uvarint(uint64(m.Renders))
		e.Uvarint(m.Digest)
		return e.Bytes()
	}
	return []byte{0xff}
}

// Query implements core.QueryHandler: cached-thumbnail lookup.
func (s *Server) Query(ctx *core.Ctx, q []byte) []byte {
	w := ctx.Worker()
	d := wire.NewDecoder(q)
	_ = d.Byte()
	id := d.Uvarint()
	s.cacheLock.Lock(w)
	digest, ok := s.cache[id]
	s.cacheLock.Unlock(w)
	e := wire.NewEncoder(nil)
	e.Bool(ok)
	e.Uvarint(digest)
	return e.Bytes()
}

// ClassifyQuery implements core.QueryClassifier. Query is a pure cache
// peek whatever the request bytes say, so secondaries may always serve
// it.
func (s *Server) ClassifyQuery([]byte) core.QueryClass { return core.QueryFollowerOK }

// ClassifyConflict implements core.ConflictClassifier: renders and stats
// conflict only within their metadata shard (class = shard index + 1).
// The shared LRU cache they also touch is guarded by the unowned — hence
// fully traced — cache lock, which is what the classification contract
// requires for cross-class shared state.
func (s *Server) ClassifyConflict(req []byte) core.ConflictClass {
	d := wire.NewDecoder(req)
	op := d.Byte()
	id := d.Uvarint()
	if d.Err() != nil {
		return core.ConflictAll
	}
	switch op {
	case OpMake, OpStat:
		return core.ConflictClass(s.shard(id)) + 1
	}
	return core.ConflictAll
}

// WriteCheckpoint implements core.StateMachine.
func (s *Server) WriteCheckpoint(w io.Writer) error {
	e := wire.NewEncoder(nil)
	for _, m := range s.shards {
		ids := make([]uint64, 0, len(m))
		for id := range m {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		e.Uvarint(uint64(len(ids)))
		for _, id := range ids {
			e.Uvarint(id)
			e.Uvarint(uint64(m[id].Renders))
			e.Uvarint(m[id].Digest)
		}
	}
	e.Uvarint(uint64(len(s.cacheLRU)))
	for _, id := range s.cacheLRU {
		e.Uvarint(id)
		e.Uvarint(s.cache[id])
	}
	_, err := w.Write(e.Bytes())
	return err
}

// ReadCheckpoint implements core.StateMachine.
func (s *Server) ReadCheckpoint(r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	d := wire.NewDecoder(buf)
	for i := 0; i < len(s.shards) && d.Err() == nil; i++ {
		n := d.Count(3) // three uvarints
		s.shards[i] = make(map[uint64]meta, n)
		for j := 0; j < n && d.Err() == nil; j++ {
			id := d.Uvarint()
			s.shards[i][id] = meta{Renders: uint32(d.Uvarint()), Digest: d.Uvarint()}
		}
	}
	n := d.Count(2) // two uvarints
	s.cache = make(map[uint64]uint64, n)
	s.cacheLRU = s.cacheLRU[:0]
	for j := 0; j < n && d.Err() == nil; j++ {
		id := d.Uvarint()
		s.cache[id] = d.Uvarint()
		s.cacheLRU = append(s.cacheLRU, id)
	}
	return d.Err()
}

// MakeReq encodes a render request.
func MakeReq(id, srcLen uint64) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(OpMake)
	e.Uvarint(id)
	e.Uvarint(srcLen)
	return e.Bytes()
}

// StatReq encodes a metadata request.
func StatReq(id uint64) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(OpStat)
	e.Uvarint(id)
	return e.Bytes()
}
