// Package lockserver implements the paper's Chubby-like distributed lock
// service (§6.3): named locked files with leases. The namespace is divided
// into shards, each protected by a Rex readers–writer lock (Table 1:
// ReadWriteLock) — lease renewals only read the shard structure and take
// the read side, while create/update take the write side.
package lockserver

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
	OpRenew  byte = 1 // renew the lease on a locked file
	OpCreate byte = 2 // create a locked file with content
	OpUpdate byte = 3 // replace a file's content
	OpInfo   byte = 4 // read lease/holder info (also the query op)
)

// Options configure the service.
type Options struct {
	Shards   int
	LeaseFor time.Duration
	// OpCost models the bookkeeping CPU per operation; content writes add
	// cost proportional to size.
	OpCost      time.Duration
	BytesPerOps time.Duration // CPU per 1 KiB of content written
	// HoldCost is CPU spent while holding the shard lock (lease-table
	// maintenance). The §6.5 query experiment raises it (with fewer
	// shards) so updates and queries genuinely contend.
	HoldCost time.Duration
}

// DefaultOptions match the paper's workload scale.
func DefaultOptions() Options {
	return Options{
		Shards:      128,
		LeaseFor:    12 * time.Second,
		OpCost:      30 * time.Microsecond,
		BytesPerOps: 8 * time.Microsecond,
	}
}

type entry struct {
	Holder  uint64
	Expiry  int64 // virtual nanoseconds
	Content []byte
	Renews  uint64
}

// Server is the lock-service state machine.
type Server struct {
	opts   Options
	locks  []*rexsync.RWLock
	shards []map[string]*entry
}

// New returns a core.Factory for the lock server.
func New(opts Options) core.Factory {
	return func(rt *sched.Runtime, host *core.TimerHost) core.StateMachine {
		s := &Server{opts: opts}
		for i := 0; i < opts.Shards; i++ {
			s.locks = append(s.locks, rexsync.NewRWLock(rt, fmt.Sprintf("ls-shard-%d", i)))
			s.shards = append(s.shards, make(map[string]*entry))
		}
		return s
	}
}

// Primitives lists the Rex primitives used (Table 1).
func Primitives() []string { return []string{"ReadWriteLock"} }

func (s *Server) shard(name string) int {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return int(h % uint32(s.opts.Shards))
}

// Apply implements core.StateMachine.
func (s *Server) Apply(ctx *core.Ctx, req []byte) []byte {
	w := ctx.Worker()
	d := wire.NewDecoder(req)
	op := d.Byte()
	name := d.String()
	client := d.Uvarint()
	sh := s.shard(name)
	ctx.Compute(s.opts.OpCost)
	switch op {
	case OpRenew:
		// Renewals dominate the workload (90%). They mutate the lease, so
		// they take the shard's write lock; read-only info requests and
		// queries take the read side. With many shards, write-side
		// contention stays low.
		now := ctx.Now()
		s.locks[sh].Lock(w)
		ctx.Compute(s.opts.HoldCost)
		en, ok := s.shards[sh][name]
		status := byte(0)
		if ok && en.Holder == client {
			en.Expiry = int64(now) + int64(s.opts.LeaseFor)
			en.Renews++
			status = 1
		}
		s.locks[sh].Unlock(w)
		return []byte{status}
	case OpCreate, OpUpdate:
		content := append([]byte(nil), d.BytesVal()...)
		ctx.Compute(time.Duration(len(content)) * s.opts.BytesPerOps / 1024)
		now := ctx.Now()
		s.locks[sh].Lock(w)
		en, ok := s.shards[sh][name]
		status := byte(1)
		switch {
		case op == OpCreate && ok:
			status = 0 // already exists
		case op == OpCreate:
			s.shards[sh][name] = &entry{Holder: client, Expiry: int64(now) + int64(s.opts.LeaseFor), Content: content}
		case !ok:
			status = 0 // update of missing file
		case en.Holder != client && en.Expiry > int64(now):
			status = 2 // held by someone else
		default:
			en.Holder = client
			en.Expiry = int64(now) + int64(s.opts.LeaseFor)
			en.Content = content
		}
		s.locks[sh].Unlock(w)
		return []byte{status}
	case OpInfo:
		s.locks[sh].RLock(w)
		en, ok := s.shards[sh][name]
		e := wire.NewEncoder(nil)
		e.Bool(ok)
		if ok {
			e.Uvarint(en.Holder)
			e.Uvarint(uint64(en.Expiry))
			e.Uvarint(en.Renews)
			e.Uvarint(uint64(len(en.Content)))
		}
		s.locks[sh].RUnlock(w)
		return e.Bytes()
	}
	return []byte{0xff}
}

// Query implements core.QueryHandler: OpInfo outside the replication
// protocol (the §6.5 experiment).
func (s *Server) Query(ctx *core.Ctx, q []byte) []byte {
	return s.Apply(ctx, q)
}

// WriteCheckpoint implements core.StateMachine.
func (s *Server) WriteCheckpoint(w io.Writer) error {
	e := wire.NewEncoder(nil)
	for _, m := range s.shards {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		e.Uvarint(uint64(len(names)))
		for _, n := range names {
			en := m[n]
			e.String(n)
			e.Uvarint(en.Holder)
			e.Uvarint(uint64(en.Expiry))
			e.Uvarint(en.Renews)
			e.BytesVal(en.Content)
		}
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
		n := d.Count(5) // a name length, three uvarints and a content length
		s.shards[i] = make(map[string]*entry, n)
		for j := 0; j < n && d.Err() == nil; j++ {
			name := d.String()
			en := &entry{Holder: d.Uvarint(), Expiry: int64(d.Uvarint()), Renews: d.Uvarint()}
			en.Content = append([]byte(nil), d.BytesVal()...)
			s.shards[i][name] = en
		}
	}
	return d.Err()
}

// RenewReq encodes a lease renewal.
func RenewReq(name string, client uint64) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(OpRenew)
	e.String(name)
	e.Uvarint(client)
	return e.Bytes()
}

// CreateReq encodes a create.
func CreateReq(name string, client uint64, content []byte) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(OpCreate)
	e.String(name)
	e.Uvarint(client)
	e.BytesVal(content)
	return e.Bytes()
}

// UpdateReq encodes an update.
func UpdateReq(name string, client uint64, content []byte) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(OpUpdate)
	e.String(name)
	e.Uvarint(client)
	e.BytesVal(content)
	return e.Bytes()
}

// InfoReq encodes an info read (usable via Submit or Query).
func InfoReq(name string) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(OpInfo)
	e.String(name)
	e.Uvarint(0)
	return e.Bytes()
}
