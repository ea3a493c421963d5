// Package smr implements standard state-machine replication — the paper's
// "RSM" baseline (§2.1, Fig. 1 left): replicas agree on a total order of
// request batches through the same Paxos engine Rex uses, then execute
// them sequentially and deterministically on a single logical thread.
//
// Background tasks, which classic SMR cannot run nondeterministically, are
// injected by the leader as ordered pseudo-requests, so applications with
// timers (LSM compaction, auto-sync) still function under the baseline.
package smr

import (
	"errors"
	"fmt"
	"time"

	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/paxos"
	"rex/internal/sched"
	"rex/internal/storage"
	"rex/internal/transport"
	"rex/internal/wire"
)

// batchEvery is the pump's batching period: requests queued within it
// share one consensus instance.
const batchEvery = 2 * time.Millisecond

// Config configures an SMR replica.
type Config struct {
	ID       int
	N        int
	Env      env.Env
	Endpoint transport.Endpoint
	Log      storage.Log
	Factory  core.Factory
	Timers   int

	HeartbeatEvery  time.Duration
	ElectionTimeout time.Duration
	MaxOutstanding  int
	Seed            int64
	Logf            func(string, ...any)
}

// ErrNotLeader reports a Submit at a non-leader replica.
var ErrNotLeader = errors.New("smr: not the leader")

// ErrStopped reports a Submit abandoned by shutdown or demotion.
var ErrStopped = errors.New("smr: stopped or demoted")

type pending struct {
	ch env.Chan
}

type reqKey struct {
	client, seq uint64
}

type dedupEntry struct {
	seq  uint64
	resp []byte
}

type batchReq struct {
	Client, Seq uint64
	Timer       int // >= 0: pseudo-request firing timer i; Body unused
	Body        []byte
}

// Replica is one SMR replica.
type Replica struct {
	cfg  Config
	e    env.Env
	node *paxos.Node

	mu      env.Mutex
	cond    env.Cond
	leader  bool
	stopped bool
	batch   []batchReq
	pend    map[reqKey]*pending
	dedup   map[uint64]dedupEntry
	inFly   int

	rt     *sched.Runtime
	sm     core.StateMachine
	timers []core.TimerSpecView
	ctx    *core.Ctx

	applyQ env.Chan

	executed uint64
	lastFire []time.Duration
}

// NewReplica builds an SMR replica.
func NewReplica(cfg Config) (*Replica, error) {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 20 * time.Millisecond
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = 150 * time.Millisecond
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 1024
	}
	r := &Replica{
		cfg:   cfg,
		e:     cfg.Env,
		pend:  make(map[reqKey]*pending),
		dedup: make(map[uint64]dedupEntry),
	}
	r.mu = cfg.Env.NewMutex()
	r.cond = cfg.Env.NewCond(r.mu)
	r.applyQ = cfg.Env.NewChan(0)

	// The application executes on one logical thread, entirely in native
	// mode: consensus precedes execution, so determinism comes from the
	// total order alone.
	rt := sched.NewRuntime(cfg.Env, 1+cfg.Timers, sched.ModeNative)
	host := &core.TimerHost{}
	r.sm = cfg.Factory(rt, host)
	specs := host.Specs()
	if len(specs) != cfg.Timers {
		return nil, fmt.Errorf("smr: factory registered %d timers, config says %d", len(specs), cfg.Timers)
	}
	r.rt = rt
	r.timers = specs
	r.lastFire = make([]time.Duration, len(specs))
	r.ctx = core.NewNativeCtxForWorker(cfg.Env, rt.Worker(0), cfg.Seed)

	node, err := paxos.NewNode(paxos.Config{
		ID: cfg.ID, N: cfg.N, Env: cfg.Env,
		Endpoint:        cfg.Endpoint,
		Log:             cfg.Log,
		HeartbeatEvery:  cfg.HeartbeatEvery,
		ElectionTimeout: cfg.ElectionTimeout,
		Seed:            cfg.Seed,
		Logf:            cfg.Logf,
		OnCommitted: func(inst uint64, val []byte) {
			r.applyQ.Send(val)
		},
		OnBecomeLeader: func() {
			r.mu.Lock()
			r.leader = true
			r.cond.Broadcast()
			r.mu.Unlock()
		},
		OnNewLeader: func(l int) {
			r.mu.Lock()
			r.leader = false
			for _, p := range r.pend {
				p.ch.Close()
			}
			r.pend = make(map[reqKey]*pending)
			r.batch = nil
			r.inFly = 0
			r.cond.Broadcast()
			r.mu.Unlock()
		},
	})
	if err != nil {
		return nil, err
	}
	r.node = node
	return r, nil
}

// Start brings the replica up.
func (r *Replica) Start() {
	r.node.Start()
	r.e.Go(fmt.Sprintf("smr-%d-apply", r.cfg.ID), r.applyLoop)
	r.e.Go(fmt.Sprintf("smr-%d-pump", r.cfg.ID), r.pump)
}

// Stop shuts the replica down.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	for _, p := range r.pend {
		p.ch.Close()
	}
	r.pend = make(map[reqKey]*pending)
	r.cond.Broadcast()
	r.mu.Unlock()
	r.node.Stop()
	r.applyQ.Close()
}

// IsLeader reports whether this replica currently leads.
func (r *Replica) IsLeader() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leader
}

// Executed returns the number of requests executed locally.
func (r *Replica) Executed() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executed
}

// Submit runs one request through consensus and sequential execution.
func (r *Replica) Submit(client, seq uint64, body []byte) ([]byte, error) {
	r.mu.Lock()
	for {
		if r.stopped {
			r.mu.Unlock()
			return nil, ErrStopped
		}
		if !r.leader {
			r.mu.Unlock()
			return nil, ErrNotLeader
		}
		if e, ok := r.dedup[client]; ok && seq <= e.seq {
			resp := e.resp
			r.mu.Unlock()
			return resp, nil
		}
		if r.inFly < r.cfg.MaxOutstanding {
			break
		}
		r.cond.Wait()
	}
	p := &pending{ch: r.e.NewChan(1)}
	r.pend[reqKey{client, seq}] = p
	r.inFly++
	r.batch = append(r.batch, batchReq{Client: client, Seq: seq, Timer: -1, Body: body})
	r.mu.Unlock()
	v, ok := p.ch.Recv()
	if !ok {
		return nil, ErrStopped
	}
	return v.([]byte), nil
}

// pump proposes batches and injects due timer pseudo-requests.
func (r *Replica) pump() {
	for {
		r.e.Sleep(batchEvery)
		r.mu.Lock()
		if r.stopped {
			r.mu.Unlock()
			return
		}
		if !r.leader {
			r.mu.Unlock()
			continue
		}
		now := r.e.Now()
		for i, spec := range r.timers {
			if now-r.lastFire[i] >= spec.Interval {
				r.lastFire[i] = now
				r.batch = append(r.batch, batchReq{Timer: i})
			}
		}
		if len(r.batch) == 0 {
			r.mu.Unlock()
			continue
		}
		batch := r.batch
		r.batch = nil
		r.mu.Unlock()
		r.node.Propose(encodeBatch(batch))
	}
}

// applyLoop executes committed batches sequentially.
func (r *Replica) applyLoop() {
	for {
		v, ok := r.applyQ.Recv()
		if !ok {
			return
		}
		batch, err := decodeBatch(v.([]byte))
		if err != nil {
			if r.cfg.Logf != nil {
				r.cfg.Logf("smr[%d]: corrupt batch: %v", r.cfg.ID, err)
			}
			return
		}
		for _, req := range batch {
			if req.Timer >= 0 {
				r.timers[req.Timer].Cb(r.ctx)
				continue
			}
			r.mu.Lock()
			if last, ok := r.dedup[req.Client]; ok && req.Seq <= last.seq {
				r.mu.Unlock()
				continue
			}
			r.mu.Unlock()
			resp := r.sm.Apply(r.ctx, req.Body)
			r.mu.Lock()
			r.dedup[req.Client] = dedupEntry{seq: req.Seq, resp: resp}
			r.executed++
			if p, ok := r.pend[reqKey{req.Client, req.Seq}]; ok {
				p.ch.Send(resp)
				delete(r.pend, reqKey{req.Client, req.Seq})
				r.inFly--
				r.cond.Broadcast()
			}
			r.mu.Unlock()
		}
	}
}

func encodeBatch(batch []batchReq) []byte {
	e := wire.NewEncoder(nil)
	e.Uvarint(uint64(len(batch)))
	for _, b := range batch {
		e.Varint(int64(b.Timer))
		e.Uvarint(b.Client)
		e.Uvarint(b.Seq)
		e.BytesVal(b.Body)
	}
	return e.Bytes()
}

// minBatchReqBytes is the smallest encoded batch entry (timer, client,
// seq, body length), which bounds a batch's count by its input.
const minBatchReqBytes = 4

func decodeBatch(buf []byte) ([]batchReq, error) {
	d := wire.NewDecoder(buf)
	n := d.Count(minBatchReqBytes)
	if d.Err() != nil {
		return nil, wire.ErrCorrupt
	}
	out := make([]batchReq, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		b := batchReq{Timer: int(d.Varint()), Client: d.Uvarint(), Seq: d.Uvarint()}
		b.Body = append([]byte(nil), d.BytesVal()...)
		out = append(out, b)
	}
	return out, d.Err()
}
