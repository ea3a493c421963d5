package core

import (
	"errors"
	"fmt"
	"time"

	"rex/internal/env"
	"rex/internal/obs"
	"rex/internal/overload"
	"rex/internal/paxos"
	"rex/internal/readpath"
	"rex/internal/reconfig"
	"rex/internal/sched"
	"rex/internal/storage"
	"rex/internal/trace"
	"rex/internal/transport"
)

// Role is a replica's current role.
type Role uint8

const (
	// RoleSecondary follows committed traces.
	RoleSecondary Role = iota
	// RolePrimary executes requests and proposes traces.
	RolePrimary
	// RoleFaulted means the replica detected divergence or an internal
	// error and halted (§5.1's validity checks fired).
	RoleFaulted
	// RoleRemoved means a committed membership change took effect that no
	// longer includes this replica; it has gone quiet.
	RoleRemoved
)

func (r Role) String() string {
	switch r {
	case RoleSecondary:
		return "secondary"
	case RolePrimary:
		return "primary"
	case RoleFaulted:
		return "faulted"
	case RoleRemoved:
		return "removed"
	}
	return fmt.Sprintf("role(%d)", uint8(r))
}

// ErrNotPrimary is returned by Submit on a replica that is not the
// primary; Leader hints where to retry (-1 if unknown).
type ErrNotPrimary struct{ Leader int }

func (e ErrNotPrimary) Error() string {
	return fmt.Sprintf("rex: not the primary (leader hint: %d)", e.Leader)
}

// ErrStopped is returned when the replica is shut down or the request was
// abandoned by a demotion; the client should retry elsewhere.
var ErrStopped = errors.New("rex: replica stopped or demoted; retry")

// Config configures a replica.
type Config struct {
	ID  int
	N   int
	Env env.Env

	// Members, when set, is the starting cluster membership and overrides
	// the static 0..N-1 voter set implied by N. A joiner bootstraps with a
	// membership that lists itself as a learner (or not at all — it learns
	// of its own admission from the chosen log).
	Members *reconfig.Membership
	// OnMembership, if set, is called (from the apply task, no locks held)
	// whenever a membership change commits — the hook deployments use to
	// update transport address books.
	OnMembership func(reconfig.Membership)
	// Endpoint is the replica's network attachment; Paxos and the Rex
	// control plane are multiplexed over it.
	Endpoint  transport.Endpoint
	Log       storage.Log
	Snapshots storage.SnapshotStore
	Factory   Factory

	// Workers is the number of request-handler threads; Timers must equal
	// the number of AddTimer registrations the factory makes; ReadWorkers
	// sizes the native read-only pool (0 disables Query).
	Workers     int
	Timers      int
	ReadWorkers int

	HeartbeatEvery  time.Duration
	ElectionTimeout time.Duration
	// LeaseDuration tunes the quorum read lease (paxos.Config): 0 takes
	// the consensus default (4×HeartbeatEvery), negative disables leases —
	// linearizable reads then always pay a consensus barrier.
	LeaseDuration time.Duration
	// ReadWaitTimeout bounds how long a read blocks on admission: a
	// linearizable read waiting for observed writes to commit (or for
	// its barrier), a session read waiting for replay to cover the
	// client's token. 0 defaults to 1s; expired waits return a
	// transient error so the client retries elsewhere.
	ReadWaitTimeout time.Duration
	// Group is the shard group id stamped into read-path session tokens
	// (readpath.Token.Group); 0 for unsharded deployments.
	Group int
	// CheckpointEvery is the primary's checkpoint initiation period; 0
	// disables periodic checkpoints (Checkpoint can still be called).
	// Even at 0, the MaxLogBytesWithoutCheckpoint floor still forces a
	// checkpoint when the log has grown too far, keeping rebuild cost —
	// and hence recovery time — bounded.
	CheckpointEvery time.Duration
	// MaxLogBytesWithoutCheckpoint is the log-growth checkpoint floor:
	// once the trace deltas committed since the last checkpoint mark add
	// up to this many bytes, the primary initiates a checkpoint regardless
	// of CheckpointEvery. 0 selects the default: the size of the newest
	// checkpoint this replica built, accepted or loaded, and at least
	// 64 KiB, so a rebuild never replays more than one checkpoint's worth
	// of log. Negative disables the floor (rebuild cost
	// then grows without bound — test-only).
	MaxLogBytesWithoutCheckpoint int64
	// StatusEvery is the secondary's replay-status report period, feeding
	// the primary's flow control.
	StatusEvery time.Duration

	// MaxOutstanding bounds admitted-but-unanswered requests (speculation
	// depth). LagLimitEvents and lagLimitInstances bound how far a live
	// secondary may fall behind before the primary throttles admission
	// (§6.2's aggressive flow control). A secondary's instance lag is
	// measured once, when its status report arrives, against the
	// primary's applied frontier at that moment. Comparing the report
	// with a later frontier would count its age as lag: one StatusEvery
	// times the commit rate, which on a fast write path alone exceeds
	// the limit and throttles a caught-up secondary.
	MaxOutstanding int
	LagLimitEvents uint64

	// Overload protection (DESIGN.md "Overload & admission control").
	// AdmissionTarget is the CoDel sojourn target: when completed
	// requests' admission→release latency stays above it for a full
	// AdmissionInterval, the gate starts shedding arrivals that would
	// otherwise queue. 0 selects the default (25ms); negative disables
	// shedding entirely (the pre-overload-protection behavior:
	// unbounded blocking at the gate).
	AdmissionTarget time.Duration
	// AdmissionInterval is the CoDel control interval (default 100ms).
	AdmissionInterval time.Duration
	// MaxAdmissionWaiters caps submitters blocked at the gate; arrivals
	// beyond it are shed unconditionally so the wait queue (and the
	// memory behind it) stays bounded no matter what the controller
	// thinks. 0 selects 4x MaxOutstanding.
	MaxAdmissionWaiters int

	// DisablePruning selects the §4.2 edge-pruning ablation.
	DisablePruning bool
	// DisableConflictElision keeps lock events on conflict-class-owned
	// resources in the trace even when the executing request's class owns
	// them (classified dispatch is unaffected). Must be set identically on
	// every replica of a group: the elision decision is part of the
	// trace's meaning. Used by the delta-size ablation benchmark.
	DisableConflictElision bool
	// UnsafeBrokenReplay injects a deliberate replay bug: events are
	// released before their causal predecessors, and the §5.1 version and
	// result checks that would report the divergence are off, so the chaos
	// checker must catch it on its own. Never set outside tests.
	UnsafeBrokenReplay bool

	Seed int64
	Logf func(format string, args ...any)

	// Metrics, if set, is the registry the replica exports its series
	// into (shared with e.g. the transport endpoint). When nil the
	// replica keeps a private registry; Replica.Metrics() works either
	// way.
	Metrics *obs.Registry
}

const (
	// proposeEvery is the max-delay cap on trace collection (§3.1:
	// "periodically proposes the up-to-date trace"). The pump is
	// demand-driven — the recorder wakes it on the first event or request
	// after a drain, and the commit of its open instance wakes it again —
	// so this cadence only bounds how stale a proposal can get when an
	// edge-triggered wake-up is lost.
	proposeEvery = 2 * time.Millisecond
	// DefaultElectionTimeout is Config.ElectionTimeout's zero-value default.
	DefaultElectionTimeout = 150 * time.Millisecond
	// lagLimitInstances is the committed-instance lag past which a live
	// voter throttles the primary's admission (see MaxOutstanding).
	lagLimitInstances = 64
	// joinLagInstances is how close (in committed instances) a learner
	// must be to the primary's applied frontier before the primary
	// proposes its promotion to voter.
	joinLagInstances = 16
)

func (c *Config) withDefaults() Config {
	cfg := *c
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.ReadWorkers < 0 {
		cfg.ReadWorkers = 0
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = 20 * time.Millisecond
	}
	if cfg.ElectionTimeout <= 0 {
		cfg.ElectionTimeout = DefaultElectionTimeout
	}
	if cfg.StatusEvery <= 0 {
		cfg.StatusEvery = 25 * time.Millisecond
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 1024
	}
	if cfg.LagLimitEvents == 0 {
		cfg.LagLimitEvents = 1 << 14
	}
	if cfg.AdmissionTarget == 0 {
		cfg.AdmissionTarget = 25 * time.Millisecond
	}
	if cfg.AdmissionInterval <= 0 {
		cfg.AdmissionInterval = 100 * time.Millisecond
	}
	if cfg.MaxAdmissionWaiters <= 0 {
		cfg.MaxAdmissionWaiters = 4 * cfg.MaxOutstanding
	}
	if cfg.ReadWaitTimeout <= 0 {
		cfg.ReadWaitTimeout = time.Second
	}
	return cfg
}

func (r *Replica) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(fmt.Sprintf("rex[%d] ", r.cfg.ID)+format, args...)
	}
}

// pendingReq is an admitted write's reply slot. Slots come from the
// replica's free list (replySlot) and go back once the submitter has read
// its reply (awaitReply).
type pendingReq struct {
	client, seq uint64
	resp        []byte
	tok         readpath.Token // the committed frontier covering the write
	end         trace.EventID
	done        bool
	failed      bool          // woken by primaryState.fail, not released
	at          time.Duration // admission time, for stage latency metrics
	ch          env.Chan      // cap 1; signalled once on release or failure
}

// wake signals the submitter waiting on p: its reply is set, or it failed.
func (p *pendingReq) wake(failed bool) {
	p.failed = failed
	p.ch.Send(struct{}{})
}

type dedupEntry struct {
	seq  uint64
	resp []byte
}

// peerStatus is a secondary's last replay-status report as the primary
// received it: lag is the primary's applied frontier minus the reported
// one, measured at receipt; backlog is the reported replay backlog.
type peerStatus struct {
	lag     uint64
	backlog uint64
	at      time.Duration
}

type reqWork struct {
	idx  uint64
	body []byte
	// class is the request's conflict class (classified state machines
	// only); in carries the cross-thread causal edges the req-begin event
	// must record, computed at dispatch time (catch-all barriers and the
	// first dispatch after one).
	class uint32
	in    []trace.EventID
}

// Replica is one Rex replica: a thin shell over two values that a role
// change builds and drops whole. inc is the current incarnation, built by
// rebuild and owning the worker tasks; prim is the primary's state, built
// by promote and dropped by demotion, fault, removal and rebuild. The role
// is derived from them (Role), never stored.
type Replica struct {
	cfg         Config
	e           env.Env
	obs         *replicaMetrics
	mux         *transport.Mux
	ctrl        transport.Endpoint
	ctrlQ       env.Chan // received control messages (*ctrlMsg), for ctrlLoop
	node        *paxos.Node
	nodeStarted bool

	mu   env.Mutex
	cond env.Cond
	// workReady wakes idle request workers (r.mu). A classified state
	// machine's worker t waits on workReady[t], and an admission wakes
	// only the worker its queue feeds; an unclassified one's workers share
	// workReady[0], and an admission signals any one of them. Pauses, role
	// changes and stop wake them all (wakeAllLocked). workWaits counts
	// each worker's sleeps there.
	workReady []env.Cond
	workWaits []uint64

	inc       *incarnation  // nil until Start's first rebuild publishes
	prim      *primaryState // non-nil exactly while this replica is the primary
	curLeader int
	faultErr  error
	stopped   bool

	// member is the latest committed membership applied (commit-time view;
	// the paxos layer tracks the activation-time view); removed latches
	// once a membership excluding this replica activates.
	member  reconfig.Membership
	removed bool

	gapUntil   uint64 // highest compaction gap already being bridged
	needResync bool   // commits jumped past applied; a rebuild is required
	applied    uint64 // committed instances applied locally

	dedup map[uint64]dedupEntry // per client: newest answered seq and response

	// Admission control (primary): admCtrl is the CoDel-style controller
	// deciding when a full gate sheds instead of queueing (nil: shedding
	// disabled); admWaiters counts submitters blocked at the gate.
	admCtrl    *overload.Controller
	admWaiters int

	// nextBarrier numbers linearizable-read barriers (read.go). It never
	// resets, so with the replica id a barrier id is unique cluster-wide
	// and a deposed primary is never woken by another primary's barrier.
	nextBarrier uint64

	// proposeWake (cap 1) is the propose pump's demand edge: the recorder
	// pokes it on new work, applyLoop when the pump's open instance
	// commits, a ticker every proposeEvery as the max-delay backstop.
	proposeWake    env.Chan
	lastDeltaBytes int // the pump's size hint for the next delta encode

	// Checkpointing (under mu). snapInst is the newest stored checkpoint's
	// instance (haveSnap: one is stored), so a pushed copy is judged
	// without reading the store; ckptSize is its size, which presizes the
	// next checkpoint built here and is the default log-growth floor.
	// logBytes counts the trace delta bytes committed since the newest
	// mark, which the floor compares against.
	markInst map[uint64]uint64 // checkpoint mark → instance carrying it
	snapInst uint64
	haveSnap bool
	ckptSize int
	logBytes int

	// peers are the secondaries' last replay-status reports, which feed
	// the primary's flow control; they arrive in every role.
	peers map[int]peerStatus

	// Commit intake: OnCommitted runs on the paxos event loop, which also
	// drives heartbeats and elections, so it must never block behind the
	// apply path (a replica mid-rebuild can stall apply for a long time;
	// blocking here was the election-churn half of the checkpoint-disabled
	// livelock). Committed instances land in an unbounded slice queue,
	// commitQ[commitHead:], and applyLoop drains them at its own pace. The
	// queue keeps its array as env.Chan does.
	commitMu     env.Mutex
	commitCond   env.Cond
	commitQ      []committedEvt
	commitHead   int
	commitClosed bool

	queryQ     env.Chan // *querySlot to the read workers
	querySlots env.Chan // free *querySlot values, reused by runQuery
	replySlots env.Chan // free *pendingReq values, reused by writes
	lifeQ      env.Chan

	group *env.Group // all long-lived tasks, for Stop

	// stats holds the counters Stats reports; Stats fills in the rest.
	stats Stats
}

type committedEvt struct {
	inst uint64
	val  []byte
}
type leaderEvt struct {
	becameLeader bool
	leader       int
	chosenAt     uint64
}

// gapEvt: a peer compacted the chosen prefix this replica still needs; a
// checkpoint transfer is required before learning can resume.
type gapEvt struct{ minInst uint64 }

// resyncEvt: committed instances jumped past our applied frontier (after a
// checkpoint transfer): rebuild from the checkpoint.
type resyncEvt struct{}

// NewReplica creates a replica. Call Start to bring it up (it begins as a
// secondary and participates in leader election).
func NewReplica(cfg Config) (*Replica, error) {
	cfg = cfg.withDefaults()
	r := &Replica{
		cfg:       cfg,
		e:         cfg.Env,
		curLeader: -1,
		dedup:     make(map[uint64]dedupEntry),
		markInst:  make(map[uint64]uint64),
		peers:     make(map[int]peerStatus),
	}
	if cfg.AdmissionTarget > 0 {
		r.admCtrl = overload.NewController(overload.Config{
			Target:   cfg.AdmissionTarget,
			Interval: cfg.AdmissionInterval,
		})
	}
	if cfg.Members != nil {
		r.member = cfg.Members.Clone()
	} else {
		r.member = reconfig.Initial(cfg.N)
	}
	r.obs = newReplicaMetrics(cfg.Metrics)
	r.mu = cfg.Env.NewMutex()
	r.cond = cfg.Env.NewCond(r.mu)
	r.workReady = make([]env.Cond, cfg.Workers)
	r.workWaits = make([]uint64, cfg.Workers)
	for i := range r.workReady {
		r.workReady[i] = cfg.Env.NewCond(r.mu)
	}
	r.commitMu = cfg.Env.NewMutex()
	r.commitCond = cfg.Env.NewCond(r.commitMu)
	r.lifeQ = cfg.Env.NewChan(0)
	r.queryQ = cfg.Env.NewChan(0)
	r.querySlots = cfg.Env.NewChan(0)
	r.replySlots = cfg.Env.NewChan(0)
	r.proposeWake = cfg.Env.NewChan(1)
	r.group = env.NewGroup(cfg.Env)
	r.ctrlQ = cfg.Env.NewChan(0)
	r.mux = transport.NewMux(cfg.Endpoint, 0, ctrlKindBase)
	r.ctrl = r.mux.Channel(1)
	node, err := paxos.NewNode(paxos.Config{
		ID:              cfg.ID,
		N:               cfg.N,
		Members:         cfg.Members,
		Env:             cfg.Env,
		Endpoint:        r.mux.Channel(0),
		Log:             cfg.Log,
		HeartbeatEvery:  cfg.HeartbeatEvery,
		ElectionTimeout: cfg.ElectionTimeout,
		LeaseDuration:   cfg.LeaseDuration,
		Seed:            cfg.Seed,
		Logf:            cfg.Logf,
		Metrics:         r.obs.paxos,
		OnCommitted: func(inst uint64, val []byte) {
			r.enqueueCommit(committedEvt{inst: inst, val: val})
		},
		OnBecomeLeader: func() {
			r.lifeQ.Send(leaderEvt{becameLeader: true, leader: cfg.ID, chosenAt: r.node.ChosenSeq()})
		},
		OnNewLeader: func(l int) {
			r.lifeQ.Send(leaderEvt{leader: l})
		},
		OnSnapshotGap: func(minInst uint64) {
			r.lifeQ.Send(gapEvt{minInst: minInst})
		},
		OnStorageFault: func(err error) {
			r.fault(fmt.Errorf("rex: consensus storage fault: %w", err))
		},
		OnRemoved: func(m reconfig.Membership) {
			// Fires on the consensus event loop once a membership excluding
			// this node activates; quiesce from a fresh task (finishRemoval
			// stops the node, which must not happen from its own loop).
			r.e.Go(fmt.Sprintf("rex-%d-removed", cfg.ID), func() {
				r.finishRemoval(m)
			})
		},
	})
	if err != nil {
		return nil, err
	}
	r.node = node
	return r, nil
}

// Start brings the replica up as a secondary: it rebuilds application
// state from the latest local checkpoint plus the committed trace, then
// joins the cluster.
func (r *Replica) Start() error {
	joinCluster := func() {
		r.nodeStarted = true
		r.node.Start()
		r.ctrl.Attach(r.receiveCtrl)
		// The control plane must run alongside the learner: catching up
		// across a compaction gap needs checkpoint transfers (ctrlLoop)
		// and gap fast-forwards (lifecycleLoop's handleGap).
		r.spawn("lifecycle", r.lifecycleLoop)
		r.spawn("ctrl", r.ctrlLoop)
	}
	err := r.rebuild()
	if errors.Is(err, errSnapshotAhead) {
		// A checkpoint transfer raced the learner's WAL persistence
		// before the crash: the stored checkpoint is valid but the delta
		// carrying its mark never reached the local log. Join the
		// cluster first so the learner can re-fetch the missing suffix
		// from peers; rebuild then waits (bounded) for it to catch up.
		joinCluster()
		err = r.rebuild()
	}
	if err != nil {
		// Tear down the already-started learner — unless it crash-stopped
		// on its own (its loop is gone; a graceful Stop would hang).
		if r.nodeStarted && r.FaultError() == nil {
			r.Stop()
		}
		return err
	}
	if !r.nodeStarted {
		joinCluster()
	}
	r.spawn("apply", r.applyLoop)
	r.spawn("pump", r.proposePump)
	r.spawn("pump-tick", r.proposeTicker)
	r.spawn("status", r.statusLoop)
	if r.cfg.CheckpointEvery > 0 {
		r.spawn("ckpt-timer", r.checkpointTimer)
	}
	if r.cfg.MaxLogBytesWithoutCheckpoint >= 0 {
		r.spawn("ckpt-floor", r.checkpointFloorLoop)
	}
	for i := 0; i < r.cfg.ReadWorkers; i++ {
		r.spawn(fmt.Sprintf("read-%d", i), r.readWorker)
	}
	return nil
}

func (r *Replica) spawn(name string, fn func()) {
	r.group.Add(1)
	r.e.Go(fmt.Sprintf("rex-%d-%s", r.cfg.ID, name), func() {
		defer r.group.Done()
		fn()
	})
}

// Stop shuts the replica down.
func (r *Replica) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	if r.prim != nil {
		r.prim.fail()
	}
	r.wakeAndAbortUnlock()
	r.node.Stop()
	r.mux.Close()
	r.ctrlQ.Close()
	r.closeCommitQ()
	r.lifeQ.Close()
	r.queryQ.Close()
	r.proposeWake.Close()
	r.group.Wait()
}

// Role returns the replica's current role.
func (r *Replica) Role() Role {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.roleLocked()
}

// roleLocked derives the role: a fault or a removal halts the replica
// whatever it was doing, and otherwise it is the primary exactly while it
// holds primary state.
func (r *Replica) roleLocked() Role {
	switch {
	case r.faultErr != nil:
		return RoleFaulted
	case r.removed:
		return RoleRemoved
	case r.prim != nil:
		return RolePrimary
	}
	return RoleSecondary
}

// secondaryLocked reports whether the replica is a live secondary: not
// halted and not the primary.
func (r *Replica) secondaryLocked() bool {
	return r.prim == nil && r.faultErr == nil && !r.removed
}

// ended reports whether a task of incarnation inc must exit: a rebuild
// replaced inc, or the replica stopped, faulted or was removed.
func (r *Replica) ended(inc *incarnation) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inc != inc || r.stopped || r.faultErr != nil || r.removed
}

// dropPrimaryLocked ends this replica's term as primary: every waiter on
// the primary state is failed (the client retries elsewhere) and the state
// is dropped whole.
func (r *Replica) dropPrimaryLocked() {
	if r.prim != nil {
		r.prim.fail()
		r.prim = nil
	}
}

// Leader returns the replica's best guess of the current leader id.
func (r *Replica) Leader() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.prim != nil {
		return r.cfg.ID
	}
	return r.curLeader
}

// FaultError returns the divergence or internal error that halted the
// replica, if any.
func (r *Replica) FaultError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.faultErr
}

// fault halts the replica after a divergence (§5.1).
func (r *Replica) fault(err error) {
	r.mu.Lock()
	if r.faultErr == nil && !r.removed {
		r.faultErr = err
		r.dropPrimaryLocked()
		r.logf("FAULT: %v", err)
	}
	r.wakeAndAbortUnlock()
}

// wakeAndAbortUnlock wakes every waiter, releases r.mu and aborts the
// current incarnation's replay, which releases its workers.
func (r *Replica) wakeAndAbortUnlock() {
	rep := r.replayerOfLocked()
	r.wakeAllLocked()
	r.mu.Unlock()
	if rep != nil {
		rep.Abort()
	}
}

// wakeAllLocked wakes every waiter on r.cond and every idle request
// worker: for a change any of them may be waiting on (a role change, a
// rebuild, a checkpoint pause, stop).
func (r *Replica) wakeAllLocked() {
	r.cond.Broadcast()
	for _, c := range r.workReady {
		c.Broadcast()
	}
}

// enqueueCommit appends a committed instance to the intake queue. It runs
// on the paxos event loop and never blocks.
func (r *Replica) enqueueCommit(evt committedEvt) {
	r.commitMu.Lock()
	if !r.commitClosed {
		r.commitQ = append(r.commitQ, evt)
		r.obs.applyBacklog.Set(int64(len(r.commitQ) - r.commitHead))
		r.commitCond.Broadcast()
	}
	r.commitMu.Unlock()
}

// nextCommit blocks until a committed instance is available (ok) or the
// intake is closed (!ok).
func (r *Replica) nextCommit() (committedEvt, bool) {
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	for r.commitHead == len(r.commitQ) {
		if r.commitClosed {
			return committedEvt{}, false
		}
		r.commitCond.Wait()
	}
	evt := r.commitQ[r.commitHead]
	r.commitQ[r.commitHead] = committedEvt{}
	r.commitHead++
	if r.commitHead > len(r.commitQ)/2 {
		// Slide the live tail to the front once the drained prefix passes
		// half, and let a catch-up backlog's array go once it drains.
		n := copy(r.commitQ, r.commitQ[r.commitHead:])
		clear(r.commitQ[n:])
		r.commitQ, r.commitHead = r.commitQ[:n], 0
		if n == 0 && cap(r.commitQ) > maxKeptCommits {
			r.commitQ = nil
		}
	}
	r.obs.applyBacklog.Set(int64(len(r.commitQ) - r.commitHead))
	return evt, true
}

// maxKeptCommits is the largest commit queue array an empty queue keeps.
const maxKeptCommits = 1024

func (r *Replica) closeCommitQ() {
	r.commitMu.Lock()
	r.commitClosed = true
	r.commitQ, r.commitHead = nil, 0
	r.commitCond.Broadcast()
	r.commitMu.Unlock()
}

// resyncUnlock records that this replica's applied state has
// desynchronized from the committed stream and a rebuild is required,
// releases r.mu, and posts a resyncEvt unless one is already pending (so a
// replica mid-rebuild batches the committed backlog instead of queueing
// one event per skipped instance).
func (r *Replica) resyncUnlock() {
	post := !r.needResync
	if post {
		r.needResync = true
		r.obs.resyncs.Inc()
		r.cond.Broadcast()
	}
	r.mu.Unlock()
	if post {
		r.lifeQ.Send(resyncEvt{})
	}
}

// applyLoop consumes committed deltas from Paxos and folds them into the
// replica's view of the committed trace. Each delta is decoded into one
// reused scratch Delta, which Apply copies out of; request bodies keep
// aliasing the committed value.
func (r *Replica) applyLoop() {
	var d trace.Delta
	for {
		evt, ok := r.nextCommit()
		if !ok {
			return
		}
		if reconfig.IsMeta(evt.val) {
			// Membership changes and activation padding share the stream
			// with trace deltas but never touch the application state.
			if !r.applyMeta(evt.inst, evt.val) {
				return
			}
			continue
		}
		if err := d.DecodeFrom(evt.val); err != nil {
			r.fault(fmt.Errorf("rex: corrupt committed delta %d: %w", evt.inst, err))
			return
		}
		r.mu.Lock()
		if evt.inst < r.applied {
			r.mu.Unlock()
			continue // already folded in by a rebuild
		}
		if evt.inst > r.applied {
			// Commits jumped past us: a checkpoint transfer advanced the
			// learner. Rebuild from the checkpoint; it will fold this
			// instance in from the learner's chosen log. The flag lets a
			// promotion already occupying the lifecycle loop service the
			// resync itself instead of waiting on an event queued behind
			// it (see promote). While a resync is already pending, further
			// jumped instances are simply dropped — the rebuild reads them
			// from the chosen log — so a rebuilding replica batches the
			// committed backlog instead of queueing an event per instance.
			r.resyncUnlock()
			continue
		}
		st := &r.stats
		st.EventsProposed += uint64(d.EventCount())
		st.EdgesProposed += uint64(d.EdgeCount())
		st.BytesCommitted += uint64(len(evt.val))
		st.ReqsCommitted += uint64(len(d.Reqs))
		for _, rq := range d.Reqs {
			st.ReqBytes += uint64(len(rq.Body))
		}
		st.DeltasCommitted++
		st.FullTraceBytes += st.BytesCommitted
		for _, m := range d.Marks {
			r.markInst[m.ID] = evt.inst
		}
		if len(d.Marks) > 0 {
			r.logBytes = 0
		} else {
			r.logBytes += len(evt.val)
		}
		var applyErr error
		wakePump := false
		if p := r.prim; p != nil {
			// The pump's open instance closed: wake it to propose the
			// backlog that built up meanwhile.
			if p.proposing {
				p.proposing = false
				r.obs.proposeCommit.Observe(r.e.Now() - p.proposedAt)
				wakePump = true
			}
			if applyErr = p.fold(&d); applyErr == nil {
				r.releaseResponsesLocked(p)
			}
		} else {
			rep := r.inc.rt.Replayer()
			r.mu.Unlock()
			applyErr = rep.Extend(&d)
			r.mu.Lock()
		}
		if applyErr != nil {
			if errors.Is(applyErr, sched.ErrReplayerAborted) {
				// A stale incarnation: the replayer was aborted under us
				// (promotion, rebuild, or a prior desync). Whatever replaces
				// it folds this instance back in from the chosen log.
				r.mu.Unlock()
				continue
			}
			if errors.Is(applyErr, trace.ErrCutBeyondTrace) && r.secondaryLocked() && !r.stopped {
				// The committed delta's cuts have desynchronized from our
				// local trace (e.g. a rebasing delta across rapid
				// promote/demote cycles). Exactly like the commits-jumped-
				// past-applied case above: degrade to a checkpoint re-sync
				// instead of crashing.
				r.logf("resync: committed delta %d beyond local trace: %v", evt.inst, applyErr)
				r.resyncUnlock()
				continue
			}
			removed := r.removed
			r.mu.Unlock()
			if removed {
				return // replayer aborted by removal, not divergence
			}
			r.fault(fmt.Errorf("rex: applying committed delta %d: %w", evt.inst, applyErr))
			return
		}
		r.applied = evt.inst + 1
		r.cond.Broadcast()
		r.mu.Unlock()
		if wakePump {
			r.wakePump()
		}
	}
}

// wakePump pokes the propose pump's demand edge; a full (or closed) wake
// channel means a wake-up is already pending, which is all we need.
func (r *Replica) wakePump() {
	r.proposeWake.TrySend(struct{}{})
}

// lifecycleLoop serializes promotions and demotions.
func (r *Replica) lifecycleLoop() {
	for {
		v, ok := r.lifeQ.Recv()
		if !ok {
			return
		}
		switch evt := v.(type) {
		case leaderEvt:
			if evt.becameLeader {
				r.promote(evt.chosenAt)
			} else {
				r.demote(evt.leader)
			}
		case gapEvt:
			r.handleGap(evt.minInst)
		case resyncEvt:
			r.mu.Lock()
			ok := !r.stopped && r.secondaryLocked() && r.needResync
			if ok {
				r.needResync = false
			}
			r.mu.Unlock()
			if ok {
				if err := r.rebuild(); err != nil {
					r.fault(fmt.Errorf("rex: resync rebuild failed: %w", err))
				}
			}
		}
	}
}

// handleGap obtains a checkpoint covering the compacted prefix and
// fast-forwards the learner past it; the subsequent commit jump triggers a
// rebuild from that checkpoint.
func (r *Replica) handleGap(minInst uint64) {
	r.mu.Lock()
	skip := r.stopped || !r.secondaryLocked() || r.applied >= minInst || r.gapUntil >= minInst
	r.mu.Unlock()
	if skip {
		return
	}
	if err := r.requestSnapshot(minInst); err != nil {
		r.logf("checkpoint transfer for gap at %d failed: %v", minInst, err)
		return
	}
	snap, ok, err := r.loadLocalSnapshot()
	if err != nil || !ok {
		r.logf("checkpoint transfer for gap at %d: no usable snapshot (%v)", minInst, err)
		return
	}
	r.mu.Lock()
	r.gapUntil = snap.Inst
	r.mu.Unlock()
	r.logf("bridging compaction gap with checkpoint %d (instance %d)", snap.MarkID, snap.Inst)
	if len(snap.Configs) > 0 {
		r.node.AdoptConfigs(snap.Configs)
	}
	r.node.AdvanceTo(snap.Inst)
}

// promote turns this secondary into the primary: wait for every committed
// instance to be applied and replayed, truncate to the last consistent
// cut, switch the runtime to record mode mid-flight (§4 mode change), and
// schedule the rebasing proposal (§3.2).
func (r *Replica) promote(chosenAt uint64) {
	start := r.e.Now()
	r.mu.Lock()
	for r.applied < chosenAt && !r.stopped && r.faultErr == nil && !r.removed {
		if r.needResync {
			// The learner jumped past a compaction gap, so applied can
			// never reach chosenAt by folding commits in order. The
			// resync event sits behind this promotion on the lifecycle
			// queue — service it here or we deadlock.
			r.needResync = false
			r.mu.Unlock()
			if err := r.rebuild(); err != nil {
				r.fault(fmt.Errorf("rex: pre-promotion rebuild failed: %w", err))
				return
			}
			r.mu.Lock()
			continue
		}
		r.cond.Wait()
	}
	if r.stopped || r.faultErr != nil || r.prim != nil || r.removed {
		r.mu.Unlock()
		return
	}
	inc := r.inc
	rep := inc.rt.Replayer()
	r.mu.Unlock()

	if !rep.WaitCaughtUp() {
		return // aborted: stopping or faulted
	}
	cut := rep.Executed()

	r.mu.Lock()
	if r.stopped || r.faultErr != nil || r.removed {
		r.mu.Unlock()
		return
	}
	tr := rep.Trace()
	if err := tr.TruncateTo(cut); err != nil {
		r.mu.Unlock()
		r.fault(fmt.Errorf("rex: promotion truncate to executed cut: %w", err))
		return
	}
	reqBase := tr.ReqEnd()
	inc.rt.StartRecord(cut, reqBase)
	inc.rt.Recorder().SetNotify(r.wakePump)
	r.prim = r.newPrimaryStateLocked(inc, tr, cut)
	r.curLeader = r.cfg.ID
	r.logf("promoted to primary at cut %v (reqs=%d, applied=%d)", cut, reqBase, r.applied)
	r.cond.Broadcast()
	r.mu.Unlock()
	r.obs.promoteDur.Observe(r.e.Now() - start)
	// Push out the one-time rebasing delta without waiting for demand.
	r.wakePump()
	rep.Abort()
}

// demote handles a new leader elsewhere. A primary rolls back its
// speculative execution by rebuilding from the latest checkpoint and the
// committed trace (§5.2: full-machine rollback).
func (r *Replica) demote(leader int) {
	r.mu.Lock()
	r.curLeader = leader
	wasPrimary := r.prim != nil
	if wasPrimary {
		r.dropPrimaryLocked()
		r.logf("demoted; new leader is %d", leader)
	}
	r.wakeAllLocked()
	r.mu.Unlock()
	if wasPrimary {
		if err := r.rebuild(); err != nil {
			r.fault(fmt.Errorf("rex: rollback rebuild failed: %w", err))
		}
	}
}

// Checkpoint requests a checkpoint now (normally driven by
// Config.CheckpointEvery). Only the primary can initiate one.
func (r *Replica) Checkpoint() error {
	return r.initiateCheckpoint()
}

func (r *Replica) checkpointTimer() {
	for {
		if !r.sleepInterruptible(r.cfg.CheckpointEvery) {
			return
		}
		if err := r.initiateCheckpoint(); err != nil && !errors.Is(err, errNotPrimaryNow) {
			r.logf("checkpoint failed: %v", err)
		}
	}
}

// checkpointFloorPoll is how often the log-growth floor is evaluated. The
// floor is a coarse bound on rebuild cost, not a cadence, so a fixed short
// poll is fine.
const checkpointFloorPoll = 25 * time.Millisecond

// minCheckpointFloorBytes is the smallest default log-growth floor, so a
// small state is not checkpointed every few commits.
const minCheckpointFloorBytes = 64 << 10

// checkpointFloorLoop enforces Config.MaxLogBytesWithoutCheckpoint: even
// with CheckpointEvery == 0, the primary initiates a checkpoint once the
// log committed since the last checkpoint mark reaches the floor, so a
// recovery never rebuilds over an unbounded log (the checkpoint-disabled
// livelock; see DESIGN.md "Recovery bounds"). The floor is counted in
// bytes, not instances, so it does not depend on how many requests the
// propose pump packs into one instance.
func (r *Replica) checkpointFloorLoop() {
	for {
		if !r.sleepInterruptible(checkpointFloorPoll) {
			return
		}
		r.mu.Lock()
		floor := int(r.cfg.MaxLogBytesWithoutCheckpoint)
		if floor == 0 {
			floor = max(r.ckptSize, minCheckpointFloorBytes)
		}
		due := r.prim != nil && !r.prim.ckPauseWorkers && r.logBytes >= floor
		r.mu.Unlock()
		if !due {
			continue
		}
		if err := r.initiateCheckpoint(); err != nil {
			if !errors.Is(err, errNotPrimaryNow) {
				r.logf("floor checkpoint failed: %v", err)
			}
			continue
		}
		r.obs.ckptFloor.Inc()
	}
}

// sleepInterruptible sleeps d in small chunks, returning false when the
// replica stops.
func (r *Replica) sleepInterruptible(d time.Duration) bool {
	const chunk = 10 * time.Millisecond
	deadline := r.e.Now() + d
	for {
		r.mu.Lock()
		stopped := r.stopped
		r.mu.Unlock()
		if stopped {
			return false
		}
		now := r.e.Now()
		if now >= deadline {
			return true
		}
		step := deadline - now
		if step > chunk {
			step = chunk
		}
		r.e.Sleep(step)
	}
}
