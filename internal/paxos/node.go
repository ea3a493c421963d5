package paxos

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"rex/internal/env"
	"rex/internal/reconfig"
	"rex/internal/storage"
	"rex/internal/transport"
	"rex/internal/wire"
)

// Config configures a Paxos node.
type Config struct {
	ID       int
	N        int
	Env      env.Env
	Endpoint transport.Endpoint
	Log      storage.Log

	// Members is the initial membership. When nil, the classic static
	// configuration reconfig.Initial(N) (voters 0..N-1, epoch 0) is used.
	// A node joining an existing cluster passes that cluster's current
	// membership (which need not include the joiner: it participates as a
	// learner until a committed change adds it).
	Members *reconfig.Membership

	// HeartbeatEvery is the leader's beacon period; ElectionTimeout is the
	// base follower patience (actual deadline adds up to 100% random
	// slack, seeded by Seed, so elections are deterministic under the
	// simulator).
	HeartbeatEvery  time.Duration
	ElectionTimeout time.Duration
	Seed            int64

	// LeaseDuration is the quorum read-lease window piggybacked on
	// heartbeats (see lease.go). 0 defaults to 4×HeartbeatEvery; negative
	// disables leases entirely. Must stay well below ElectionTimeout or
	// grant suppression will delay recovery from a dead leader.
	LeaseDuration time.Duration

	// OnCommitted fires for every chosen instance in order. It runs on the
	// node's event loop and must not block for long. It does not wait for
	// the instance's chosen record to reach the WAL (see walForce).
	OnCommitted func(inst uint64, val []byte)
	// OnBecomeLeader fires when this replica has completed phase 1 across
	// all open instances without seeing a higher ballot AND every instance
	// that might have been committed has been committed locally — i.e.
	// when the paper's new primary has "learned the trace committed in the
	// last instance" (§3.2).
	OnBecomeLeader func()
	// OnNewLeader fires whenever a higher ballot owned by another replica
	// is observed (§3.1): the signal for primary demotion.
	OnNewLeader func(leader int)
	// OnSnapshotGap fires when a peer reports that the chosen prefix this
	// learner needs was compacted away: the replica must obtain a
	// checkpoint covering at least minInst and call AdvanceTo.
	OnSnapshotGap func(minInst uint64)
	// OnMembership fires on the event loop whenever a committed membership
	// change reaches its activation instance and the node switches quorum
	// and peer sets to it.
	OnMembership func(m reconfig.Membership)
	// OnRemoved fires once when an activated membership no longer includes
	// this node: it has been removed from the cluster and should go quiet.
	OnRemoved func(m reconfig.Membership)
	// OnStorageFault, if set, fires when a WAL write fails. The node then
	// goes silent — endpoint and inbox closed, event loop exited — which is
	// the crash-stop behaviour consensus safety assumes: a promise or
	// acceptance that did not reach disk is never advertised. When unset, a
	// WAL write failure panics (a process with a dead disk cannot continue).
	OnStorageFault func(err error)
	// Logf, if set, receives diagnostic logging.
	Logf func(format string, args ...any)

	// Metrics, if set, receives consensus counters and the propose→commit
	// latency histogram. NewNode substitutes a private set when nil, so
	// instrumentation sites never nil-check.
	Metrics *Metrics
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf("paxos[%d] "+format, append([]any{c.ID}, args...)...)
	}
}

// Node is one replica's Paxos engine. All state is owned by the event-loop
// task; external methods communicate through the inbox, and the endpoint's
// readers queue each received message there (receive).
type Node struct {
	cfg   Config
	inbox env.Chan
	rng   *rand.Rand
	msgs  msgPool

	tick time.Duration // timer period: HeartbeatEvery/2, or 10ms

	// Acceptor state (durable).
	promised Ballot
	accepted map[uint64]acceptedEntry

	// Learner state (durable). chosen[i] is the value of instance
	// chosenBase+i; chosenSeq = chosenBase + len(chosen).
	chosen     [][]byte
	chosenBase uint64
	chosenSeq  uint64
	pendingVal map[uint64][]byte // commits received out of order

	// Leadership.
	leaderBallot Ballot
	curLeader    int
	isLeader     bool

	// Candidate state.
	preparing  bool
	prepBallot Ballot
	promises   []*message // this election's, one per sender, in sender order
	handling   *message   // the received message being handled
	prepSent   time.Duration

	// Proposer state. The leader keeps at most one consensus instance
	// open (§3.1): open is that instance (nil when none), and the next one
	// to open is always chosenSeq, so each proposal extends the trace
	// committed before it.
	proposeQ      [][]byte
	open          *inflightState // &inflight while an instance is open
	inflight      inflightState  // reused for every instance
	announceAfter bool           // fire OnBecomeLeader once re-proposals commit

	lastHeartbeat    time.Duration
	electionDeadline time.Duration
	stopped          bool
	// replyTo is the reply channel of the command being handled, which
	// flushes the WAL first; a storage fault closes it, so the caller
	// does not wait for a reply that never comes.
	replyTo env.Chan

	// Read-lease state (lease.go). Voter side: leaseTo/leaseUntil is the
	// silent window granted to the current leader. Leader side: grantAt
	// records the latest acked heartbeat stamp per voter; leaseExpiry
	// publishes the computed window end for lock-free LeaseValid reads.
	leaseTo     int
	leaseUntil  time.Duration
	grantAt     map[int]time.Duration
	leaseExpiry atomic.Int64

	// Membership schedule: configs[i] governs every instance in
	// [configs[i].FromInst, configs[i+1].FromInst). Always non-empty,
	// sorted by FromInst (equivalently by epoch: both grow in commit
	// order). activeEpoch caches configAt(chosenSeq).Epoch; wasMember
	// tracks whether this node belonged to the active config, so only a
	// member→non-member transition counts as removal (a joiner replaying
	// history is absent from every pre-admission config); removedFired
	// latches OnRemoved; learnRR rotates a learner's catch-up targets.
	configs      []reconfig.Scheduled
	peers        []int // peerList cache; nil after a schedule change
	activeEpoch  uint64
	wasMember    bool
	removedFired bool
	learnRR      int

	// Batched-persistence state. Handlers append durable records to the
	// walEnc arena (walEnds marks record boundaries) and queue outgoing
	// messages and commit callbacks instead of acting immediately; the
	// event loop flushes everything it drained from the inbox with ONE
	// AppendBatch — so N messages cost one fsync, not N — and only then
	// releases the sends and callbacks. Acceptor state (promise, accepted,
	// advance, config records) therefore persists before any message
	// advertising it, as in the record-per-fsync design. Chosen records do
	// not set walForce: a chosen fact survives on a quorum's accepted
	// records, so they ride the next forced flush (or Compact,
	// ChosenSnapshot, Sync, Stop) and the callbacks behind them go out at
	// once.
	walEnc   *wire.Encoder
	walEnds  []int    // arena offset after each pending record
	walRecs  [][]byte // scratch sub-slice view passed to AppendBatch
	walForce bool     // a pending record must be durable before the batch is released
	outbox   []outMsg
	commits  []commitNote
	sendEnc  *wire.Encoder // each outgoing message is encoded here, then lent to Send
}

// outMsg is a deferred send; to < 0 broadcasts. It owns its message, which
// flushBatch gives back to the free list once sent.
type outMsg struct {
	to int
	m  *message
}

// commitNote is a deferred OnCommitted callback, or (promote=true) a
// deferred OnBecomeLeader announcement queued behind the commits it
// depends on so the callbacks fire in the same order as the
// record-per-fsync design.
type commitNote struct {
	inst    uint64
	val     []byte
	promote bool
}

// inflightState tracks the leader's open phase-2 instance.
type inflightState struct {
	inst   uint64
	val    []byte
	acks   []int // replicas that accepted, each once
	sentAt time.Duration
}

// internal inbox commands; a received message is queued as its *message
type tickMsg struct{}
type proposeCmd struct{ val []byte }
type compactCmd struct{ upTo uint64 }
type stopCmd struct{ done env.Chan }
type syncCmd struct{ done env.Chan }
type chosenReq struct{ reply env.Chan }
type advanceCmd struct{ to uint64 }
type adoptCmd struct{ configs []reconfig.Scheduled }

// ChosenState is a consistent snapshot of the learner's state, safe to
// request from any task.
type ChosenState struct {
	Base uint64
	Vals [][]byte
	Seq  uint64
	// Configs is the membership schedule relevant from Base on: the config
	// governing Base plus everything scheduled later. Checkpoint transfers
	// carry it so a restored learner knows the quorums for the instances
	// it skipped.
	Configs []reconfig.Scheduled
}

// NewNode creates a node, recovering durable state from cfg.Log. Call
// Start to begin participating. Chosen values recovered from the log are
// available via Chosen()/ChosenSeq() before Start and do not re-fire
// OnCommitted.
func NewNode(cfg Config) (*Node, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics()
	}
	switch {
	case cfg.LeaseDuration < 0:
		cfg.LeaseDuration = 0 // disabled
	case cfg.LeaseDuration == 0:
		cfg.LeaseDuration = 4 * cfg.HeartbeatEvery
	}
	tick := cfg.HeartbeatEvery / 2
	if tick <= 0 {
		tick = 10 * time.Millisecond
	}
	n := &Node{
		cfg:        cfg,
		inbox:      cfg.Env.NewChan(0),
		rng:        rand.New(rand.NewSource(cfg.Seed ^ int64(cfg.ID)*0x9e3779b9)),
		tick:       tick,
		accepted:   make(map[uint64]acceptedEntry),
		pendingVal: make(map[uint64][]byte),
		curLeader:  -1,
		leaseTo:    -1,
		grantAt:    make(map[int]time.Duration),
		walEnc:     wire.NewEncoder(nil),
		sendEnc:    wire.NewEncoder(nil),
	}
	base := reconfig.Initial(cfg.N)
	if cfg.Members != nil {
		if err := cfg.Members.Validate(); err != nil {
			return nil, err
		}
		base = cfg.Members.Clone()
	}
	n.configs = []reconfig.Scheduled{{FromInst: 0, M: base}}
	if err := n.recover(); err != nil {
		return nil, err
	}
	n.pruneConfigs()
	n.activeEpoch = n.activeConfig().Epoch
	n.wasMember = n.activeConfig().IsMember(cfg.ID)
	return n, nil
}

// Durable record kinds. A chosen instance is recorded as recChosenRef
// (instance, ballot) when this node's accepted record for the instance
// holds the value at that ballot, and as recChosen with the value's bytes
// when it learned the value without accepting it there. Neither forces a
// flush.
const (
	recPromised  byte = 1
	recAccepted  byte = 2
	recChosen    byte = 3
	recAdvance   byte = 4
	recConfig    byte = 5
	recChosenRef byte = 6
)

// chosenRec is a recovered chosen record: the value, or for a reference
// the ballot its accepted record must reach.
type chosenRec struct {
	val    []byte
	ref    bool
	ballot Ballot
}

// recover rebuilds durable state from the log. A chosen reference
// resolves to this node's accepted value for the instance at the
// reference's ballot or above, which by Paxos safety is the chosen value;
// the recovered chosen log ends at the first instance it cannot resolve
// (or never recorded), and the learner re-fetches from there. So it may be
// shorter than before a crash, never different.
func (n *Node) recover() error {
	recs, err := n.cfg.Log.Records()
	if err != nil {
		return err
	}
	chosenMap := make(map[uint64]chosenRec)
	var advTo uint64
	for _, rec := range recs {
		d := wire.NewDecoder(rec)
		switch d.Byte() {
		case recAdvance:
			if to := d.Uvarint(); to > advTo {
				advTo = to
			}
		case recPromised:
			n.promised = Ballot{Round: d.Uvarint(), Node: uint32(d.Uvarint())}
		case recAccepted:
			a := acceptedEntry{Inst: d.Uvarint()}
			a.Ballot = Ballot{Round: d.Uvarint(), Node: uint32(d.Uvarint())}
			a.Val = append([]byte(nil), d.BytesVal()...)
			if d.Err() == nil {
				n.accepted[a.Inst] = a
			}
		case recChosen:
			inst := d.Uvarint()
			val := append([]byte(nil), d.BytesVal()...)
			if d.Err() == nil {
				chosenMap[inst] = chosenRec{val: val}
			}
		case recChosenRef:
			inst := d.Uvarint()
			b := Ballot{Round: d.Uvarint(), Node: uint32(d.Uvarint())}
			if d.Err() == nil {
				chosenMap[inst] = chosenRec{ref: true, ballot: b}
			}
		case recConfig:
			from := d.Uvarint()
			mv := d.BytesVal()
			if d.Err() == nil {
				m, merr := reconfig.DecodeValue(mv)
				if merr != nil {
					return fmt.Errorf("paxos: corrupt membership record: %w", merr)
				}
				n.recoverConfig(reconfig.Scheduled{FromInst: from, M: m})
			}
		}
		if d.Err() != nil {
			return fmt.Errorf("paxos: corrupt log record: %w", d.Err())
		}
	}
	// Find the lowest chosen instance at or above any advance marker (the
	// compaction base) and take the contiguous run from there.
	lo, found := uint64(0), false
	for inst := range chosenMap {
		if inst >= advTo && (!found || inst < lo) {
			lo, found = inst, true
		}
	}
	if found {
		n.chosenBase = lo
		for inst := lo; ; inst++ {
			c, ok := chosenMap[inst]
			if !ok {
				break
			}
			if c.ref {
				a, ok := n.accepted[inst]
				if !ok || a.Ballot.Less(c.ballot) {
					break
				}
				c.val = a.Val
			}
			n.chosen = append(n.chosen, c.val)
		}
		n.chosenSeq = n.chosenBase + uint64(len(n.chosen))
	}
	if advTo > n.chosenSeq {
		n.chosenBase = advTo
		n.chosen = nil
		n.chosenSeq = advTo
	}
	// A chosen instance needs no accepted entry, as after commitValue.
	for inst := range n.accepted {
		if inst < n.chosenSeq {
			delete(n.accepted, inst)
		}
	}
	return nil
}

// storageFault unwinds the event loop when a WAL write fails; loop()
// recovers it and takes the node crash-stop silent (see OnStorageFault).
type storageFault struct{ err error }

func (n *Node) storageFailed(op string, err error) {
	panic(storageFault{err: fmt.Errorf("paxos: log %s failed: %w", op, err)})
}

// walEnd closes the record currently being written into the arena: a
// record the batch must not be released before.
func (n *Node) walEnd() {
	n.walEnds = append(n.walEnds, n.walEnc.Len())
	n.walForce = true
}

func (n *Node) persistPromised() {
	e := n.walEnc
	e.Byte(recPromised)
	e.Uvarint(n.promised.Round)
	e.Uvarint(uint64(n.promised.Node))
	n.walEnd()
}

func (n *Node) persistAccepted(a acceptedEntry) {
	e := n.walEnc
	e.Byte(recAccepted)
	e.Uvarint(a.Inst)
	e.Uvarint(a.Ballot.Round)
	e.Uvarint(uint64(a.Ballot.Node))
	e.BytesVal(a.Val)
	n.walEnd()
}

// persistChosen records that val was chosen in inst at ballot b (zero when
// unknown). When this node's accepted entry for inst holds b, the record
// points at it instead of carrying val again; it goes to the arena without
// forcing a flush (see walForce). It must run before the accepted entry is
// dropped, and its accepted record is already in the log or ahead of it in
// the arena.
func (n *Node) persistChosen(inst uint64, b Ballot, val []byte) {
	e := n.walEnc
	if a, ok := n.accepted[inst]; ok && a.Ballot == b {
		e.Byte(recChosenRef)
		e.Uvarint(inst)
		e.Uvarint(b.Round)
		e.Uvarint(uint64(b.Node))
	} else {
		e.Byte(recChosen)
		e.Uvarint(inst)
		e.BytesVal(val)
	}
	n.walEnds = append(n.walEnds, e.Len())
}

// maxLazyWAL bounds the chosen records that wait for a forced flush, as on
// a learner, which accepts nothing.
const maxLazyWAL = 1 << 20

// flushWAL retires every record pending in the arena with one AppendBatch
// (one fsync under a file log). A failure unwinds into the crash-stop
// storage-fault path before anything queued behind the records (sends,
// commit callbacks) is released.
func (n *Node) flushWAL() {
	if len(n.walEnds) == 0 {
		return
	}
	n.walForce = false
	buf := n.walEnc.Bytes()
	recs := n.walRecs[:0]
	prev := 0
	for _, end := range n.walEnds {
		recs = append(recs, buf[prev:end:end])
		prev = end
	}
	n.walRecs = recs
	n.cfg.Metrics.PersistBatch.Observe(uint64(len(recs)))
	err := n.cfg.Log.AppendBatch(recs)
	// The log has retired (or rejected) the batch; the arena is ours again.
	n.walEnc.Reset()
	n.walEnds = n.walEnds[:0]
	if err != nil {
		n.storageFailed("append", err)
	}
}

// flushBatch releases everything deferred during the current drain cycle,
// in durability order: the WAL when it holds a forcing record, then commit
// callbacks, then sends. Chosen records alone stay pending.
func (n *Node) flushBatch() {
	if n.walForce || n.walEnc.Len() > maxLazyWAL {
		n.flushWAL()
	}
	if len(n.commits) > 0 {
		// n.commits may grow while we iterate (OnCommitted is documented
		// to run on the event loop and must not re-enter, but commitValue
		// itself is not called from callbacks) — iterate by index anyway
		// so an append during iteration cannot be skipped.
		for i := 0; i < len(n.commits); i++ {
			c := n.commits[i]
			switch {
			case c.promote:
				if n.cfg.OnBecomeLeader != nil {
					n.cfg.OnBecomeLeader()
				}
			case n.cfg.OnCommitted != nil:
				n.cfg.OnCommitted(c.inst, c.val)
			}
			n.commits[i] = commitNote{}
		}
		n.commits = n.commits[:0]
	}
	n.flushSends()
}

// maxSendBuf is the largest scratch encoder flushSends keeps between
// batches; a larger learn reply's buffer goes with it.
const maxSendBuf = 64 << 10

// flushSends releases the outbox. Each message is encoded at most once,
// into the scratch encoder, however many peers it goes to, and goes back
// to the free list once sent. A message to self never crosses the
// endpoint: it goes straight back into this node's inbox, after the WAL
// flush like any send, and is given back once handled.
func (n *Node) flushSends() {
	for i := range n.outbox {
		o := n.outbox[i]
		n.outbox[i] = outMsg{}
		var one [1]int
		to := n.peerList()
		if o.to >= 0 {
			one[0] = o.to
			to = one[:]
		}
		var payload []byte
		self := false
		for _, peer := range to {
			if peer == n.cfg.ID {
				self = true
				continue
			}
			if payload == nil {
				n.sendEnc.Reset()
				o.m.encodeTo(n.sendEnc)
				payload = n.sendEnc.Bytes()
			}
			n.cfg.Endpoint.Send(peer, payload)
		}
		if self {
			o.m.from = n.cfg.ID
			n.inbox.Send(o.m)
		} else {
			n.msgs.put(o.m)
		}
	}
	n.outbox = n.outbox[:0]
	if cap(n.sendEnc.Bytes()) > maxSendBuf {
		n.sendEnc = wire.NewEncoder(nil)
	}
}

// Chosen returns the in-memory chosen values starting at base (values
// before base were compacted away after a checkpoint).
func (n *Node) Chosen() (base uint64, vals [][]byte) {
	return n.chosenBase, n.chosen
}

// ChosenSeq returns the number of instances known chosen.
func (n *Node) ChosenSeq() uint64 { return n.chosenSeq }

// Start attaches the node to its endpoint and launches its tasks: the
// event loop and the ticker.
func (n *Node) Start() {
	e := n.cfg.Env
	n.electionDeadline = e.Now() + n.electionTimeout()
	n.cfg.Endpoint.Attach(n.receive)
	e.Go(fmt.Sprintf("paxos-%d-tick", n.cfg.ID), func() {
		for {
			e.Sleep(n.tick)
			if !n.inbox.Send(tickMsg{}) {
				return
			}
		}
	})
	e.Go(fmt.Sprintf("paxos-%d-loop", n.cfg.ID), n.loop)
}

// receive is the node's transport handler. It runs on the endpoint's
// reading goroutine: it decodes the frame into a message from the free
// list, copying out what the frame only lends, and queues it for the
// event loop — the frame's one hand-off.
func (n *Node) receive(d transport.Delivery) {
	m := n.msgs.get()
	if err := m.decode(d.Payload, d.Lent); err != nil {
		n.cfg.logf("dropping corrupt message from %d: %v", d.From, err)
		n.msgs.put(m)
		return
	}
	m.from = d.From
	if !n.inbox.Send(m) {
		n.msgs.put(m)
	}
}

// Propose enqueues val for consensus. Only the leader's queue drains; a
// non-leader discards its queue when it observes a new leader.
func (n *Node) Propose(val []byte) {
	n.inbox.Send(proposeCmd{val: val})
}

// AdvanceTo fast-forwards the learner past a compacted prefix after the
// replica obtained a checkpoint covering every instance below `to`. The
// learner then resumes learning normal chosen values from `to`.
func (n *Node) AdvanceTo(to uint64) {
	n.inbox.Send(advanceCmd{to: to})
}

// Compact discards chosen values below upTo (they are covered by a
// checkpoint) and rewrites the durable log.
func (n *Node) Compact(upTo uint64) {
	n.inbox.Send(compactCmd{upTo: upTo})
}

// ChosenSnapshot returns a consistent copy of the learner state, safe to
// call from any task. Once the event loop has exited (stop or storage
// fault) it answers from the state the loop left: the loop closed its
// inbox before exiting and changes nothing after that.
func (n *Node) ChosenSnapshot() ChosenState {
	reply := n.cfg.Env.NewChan(1)
	if !n.inbox.Send(chosenReq{reply: reply}) {
		return n.chosenState()
	}
	v, ok := reply.Recv()
	if !ok {
		return n.chosenState()
	}
	return v.(ChosenState)
}

// chosenState copies the learner state. Only the event loop, or anyone
// once the loop has exited, may call it.
func (n *Node) chosenState() ChosenState {
	return ChosenState{
		Base:    n.chosenBase,
		Vals:    append([][]byte(nil), n.chosen...),
		Seq:     n.chosenSeq,
		Configs: n.scheduledConfigs(n.chosenBase),
	}
}

// Sync makes every chosen record this node holds durable and returns true,
// or returns false once the node has stopped. Call it before saving a
// checkpoint, so the chosen log reaches the checkpoint's instance on disk
// first.
func (n *Node) Sync() bool {
	done := n.cfg.Env.NewChan(1)
	if !n.inbox.Send(syncCmd{done: done}) {
		return false
	}
	_, ok := done.Recv()
	return ok
}

// Stop shuts the node down and waits for the event loop to exit.
func (n *Node) Stop() {
	done := n.cfg.Env.NewChan(1)
	if !n.inbox.Send(stopCmd{done: done}) {
		return
	}
	done.Recv()
}

func (n *Node) electionTimeout() time.Duration {
	base := n.cfg.ElectionTimeout
	return base + time.Duration(n.rng.Int63n(int64(base)+1))
}

// out returns a message from the free list set to v.
func (n *Node) out(v message) *message {
	m := n.msgs.get()
	*m = v
	return m
}

// send and broadcast queue into the outbox, which takes m; the event loop
// releases the messages only after the WAL batch holding any state they
// advertise has been flushed (see flushBatch).
func (n *Node) send(to int, m *message) {
	n.outbox = append(n.outbox, outMsg{to: to, m: m})
}

func (n *Node) broadcast(m *message) {
	n.outbox = append(n.outbox, outMsg{to: -1, m: m})
}

func (n *Node) loop() {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		sf, ok := v.(storageFault)
		if !ok {
			panic(v)
		}
		if n.cfg.OnStorageFault == nil {
			panic(sf.err.Error())
		}
		// Crash-stop: drop off the network before reporting, so no state
		// that failed to persist is ever advertised to a peer.
		n.stopped = true
		n.cfg.Endpoint.Close()
		n.inbox.Close()
		n.cfg.logf("storage fault, going silent: %v", sf.err)
		n.cfg.OnStorageFault(sf.err)
		if n.replyTo != nil {
			n.replyTo.Close()
		}
	}()
	// Drain greedily: one blocking Recv, then non-blocking TryRecv until the
	// inbox is empty (capped so a firehose cannot starve the flush). All the
	// durable records the drained handlers produced retire with ONE
	// AppendBatch in flushBatch — the group-commit half of the paper's
	// agree-stage pipelining — before any send or callback they queued is
	// released.
	const maxDrain = 256
	for {
		v, ok := n.inbox.Recv()
		if !ok {
			return
		}
		if n.handleCmd(v) {
			return
		}
		for drained := 0; drained < maxDrain; drained++ {
			v, ok, _ = n.inbox.TryRecv()
			if !ok {
				break
			}
			if n.handleCmd(v) {
				return
			}
		}
		n.flushBatch()
	}
}

// handleCmd dispatches one inbox value; it returns true when the event
// loop must exit.
func (n *Node) handleCmd(v any) (quit bool) {
	switch c := v.(type) {
	case *message:
		n.handling = c
		n.handleMessage(c)
		n.handling = nil
		if !c.held {
			n.msgs.put(c)
		}
	case tickMsg:
		n.handleTick()
	case proposeCmd:
		if n.isLeader {
			n.proposeQ = append(n.proposeQ, c.val)
			n.proposeNext()
		} else {
			n.cfg.logf("dropping proposal while not leader")
		}
	case compactCmd:
		// Rewrite replaces the whole log; records still pending in the
		// arena must reach the old log first so the snapshot supersedes
		// rather than races them.
		n.flushWAL()
		n.handleCompact(c.upTo)
	case advanceCmd:
		if c.to > n.chosenSeq {
			e := n.walEnc
			e.Byte(recAdvance)
			e.Uvarint(c.to)
			n.walEnd()
			n.chosenBase = c.to
			n.chosen = nil
			n.chosenSeq = c.to
			for inst := range n.accepted {
				if inst < c.to {
					delete(n.accepted, inst)
				}
			}
			n.checkActivation()
			// Values committed past the gap were stashed; fold in any
			// that are now contiguous.
			if v, ok := n.pendingVal[n.chosenSeq]; ok {
				delete(n.pendingVal, n.chosenSeq)
				n.commitValue(n.chosenSeq, Ballot{}, v, n.cfg.ID)
			}
		}
	case adoptCmd:
		for _, sc := range c.configs {
			n.scheduleConfig(sc, true)
		}
	case chosenReq:
		// Snapshots promise durable state, as the record-per-fsync design
		// delivered by construction.
		n.replyTo = c.reply
		n.flushWAL()
		n.replyTo = nil
		c.reply.Send(n.chosenState())
	case syncCmd:
		n.replyTo = c.done
		n.flushWAL()
		n.replyTo = nil
		c.done.Send(struct{}{})
	case stopCmd:
		n.replyTo = c.done
		n.flushWAL()
		n.flushBatch()
		n.replyTo = nil
		n.stopped = true
		n.leaseExpiry.Store(0)
		n.cfg.Endpoint.Close()
		n.inbox.Close()
		c.done.Send(struct{}{})
		return true
	}
	return false
}

func (n *Node) handleTick() {
	now := n.cfg.Env.Now()
	if n.isLeader {
		if now-n.lastHeartbeat >= n.cfg.HeartbeatEvery {
			n.lastHeartbeat = now
			n.cfg.Metrics.Heartbeats.Inc()
			hb := n.out(message{Kind: mHeartbeat, Ballot: n.prepBallot, ChosenSeq: n.chosenSeq, Epoch: n.activeEpoch})
			n.stampHeartbeat(hb, now)
			n.broadcast(hb)
		}
		// Retransmit a stuck proposal (lost Accept or Accepted).
		if st := n.open; st != nil && now-st.sentAt >= 4*n.tick {
			st.sentAt = now
			n.broadcast(n.out(message{Kind: mAccept, Ballot: n.prepBallot, Inst: st.inst, Val: st.val, Epoch: n.epochAt(st.inst)}))
		}
		return
	}
	if !n.isVoter() {
		// A learner cannot lead; its election timeout instead drives
		// catch-up from the voters until a committed change promotes it.
		if now >= n.electionDeadline {
			n.learnTick()
		}
		return
	}
	if n.preparing && now-n.prepSent >= 4*n.tick {
		// Retransmit the Prepare (lost messages).
		n.prepSent = now
		n.broadcast(n.out(message{Kind: mPrepare, Ballot: n.prepBallot, FromInst: n.chosenSeq, Epoch: n.activeEpoch}))
	}
	if now >= n.electionDeadline {
		if n.holdElection() {
			// Our grant to the (possibly dead) leader is still live: peers
			// in the same window would suppress the prepare anyway. Retry
			// once the grant has run out.
			n.electionDeadline = n.leaseUntil
			return
		}
		n.startElection()
	}
}

func (n *Node) startElection() {
	now := n.cfg.Env.Now()
	round := n.leaderBallot.Round
	if n.promised.Round > round {
		round = n.promised.Round
	}
	if n.prepBallot.Round > round {
		round = n.prepBallot.Round
	}
	n.prepBallot = Ballot{Round: round + 1, Node: uint32(n.cfg.ID)}
	n.preparing = true
	n.dropPromises()
	n.prepSent = now
	n.electionDeadline = now + n.electionTimeout()
	n.cfg.Metrics.Elections.Inc()
	n.cfg.logf("starting election with ballot %v from instance %d", n.prepBallot, n.chosenSeq)
	n.broadcast(n.out(message{Kind: mPrepare, Ballot: n.prepBallot, FromInst: n.chosenSeq, Epoch: n.activeEpoch}))
}

// observeBallot tracks the highest ballot seen and fires leadership
// callbacks. Returns false if b is stale.
func (n *Node) observeBallot(b Ballot) {
	if n.leaderBallot.Less(b) {
		n.leaderBallot = b
		newLeader := int(b.Node)
		if n.isLeader && newLeader != n.cfg.ID {
			n.cfg.logf("deposed by ballot %v", b)
			n.isLeader = false
			n.open = nil
			n.proposeQ = nil
			n.dropLease()
		}
		if newLeader != n.curLeader {
			n.curLeader = newLeader
			if newLeader != n.cfg.ID && n.cfg.OnNewLeader != nil {
				n.cfg.OnNewLeader(newLeader)
			}
		}
		if n.preparing && n.prepBallot.Less(b) {
			n.preparing = false
		}
	}
}

func (n *Node) handleMessage(m *message) {
	if n.stopped {
		return
	}
	from := m.from
	switch m.Kind {
	case mPrepare:
		n.onPrepare(m, from)
	case mPromise:
		n.onPromise(m, from)
	case mNack:
		n.onNack(m, from)
	case mAccept:
		n.onAccept(m, from)
	case mAccepted:
		n.onAccepted(m, from)
	case mCommit:
		n.observeBallot(m.Ballot)
		n.bumpLeaderContact(from)
		n.commitValue(m.Inst, m.Ballot, m.Val, from)
	case mCommitRef:
		n.observeBallot(m.Ballot)
		n.bumpLeaderContact(from)
		n.onCommitRef(m, from)
	case mHeartbeat:
		n.onHeartbeat(m, from)
	case mLearn:
		n.onLearn(m, from)
	case mLearnReply:
		for i, v := range m.Vals {
			n.commitValue(m.FromInst+uint64(i), Ballot{}, v, from)
		}
	case mLearnNack:
		if m.FromInst > n.chosenSeq && n.cfg.OnSnapshotGap != nil {
			n.cfg.OnSnapshotGap(m.FromInst)
		}
	case mEpochNack:
		n.onEpochNack(m, from)
	case mLeaseGrant:
		n.onLeaseGrant(m, from)
	}
}

func (n *Node) bumpLeaderContact(from int) {
	if from == n.curLeader {
		n.electionDeadline = n.cfg.Env.Now() + n.electionTimeout()
	}
}

func (n *Node) onPrepare(m *message, from int) {
	if !n.isVoter() {
		return // learners never promise
	}
	if m.Epoch < n.activeEpoch || (m.Epoch == n.activeEpoch && !n.activeConfig().IsVoter(from)) {
		// The candidate's membership view is stale (it may have been
		// removed): refuse, and teach it the configuration it missed.
		n.sendEpochNack(from)
		return
	}
	if n.suppressPrepare(from) {
		// Inside a read-lease silent window granted to another node: a
		// promise now could elect a leader while the lease holder still
		// serves lease reads. Drop silently; the candidate retries after
		// the window.
		return
	}
	if m.Ballot.Less(n.promised) {
		n.cfg.Metrics.NacksSent.Inc()
		n.send(from, n.out(message{Kind: mNack, Ballot: n.promised}))
		return
	}
	if n.promised.Less(m.Ballot) {
		n.promised = m.Ballot
		n.persistPromised()
	}
	n.observeBallot(m.Ballot)
	// A prepare from a live candidate resets the election timer: give the
	// election a chance to complete before competing.
	n.electionDeadline = n.cfg.Env.Now() + n.electionTimeout()
	reply := n.out(message{Kind: mPromise, Ballot: m.Ballot, ChosenSeq: n.chosenSeq})
	for inst, a := range n.accepted {
		if inst >= m.FromInst {
			reply.Accepted = append(reply.Accepted, a)
		}
	}
	// In instance order, so a promise's bytes are the same on every run.
	slices.SortFunc(reply.Accepted, func(a, b acceptedEntry) int { return cmp.Compare(a.Inst, b.Inst) })
	n.send(from, reply)
}

func (n *Node) onPromise(m *message, from int) {
	if !n.preparing || m.Ballot != n.prepBallot {
		return
	}
	n.keepPromise(m)
	if m.ChosenSeq > n.chosenSeq {
		// A peer knows more chosen instances: learn them before leading.
		n.cfg.Metrics.LearnReqs.Inc()
		n.send(from, n.out(message{Kind: mLearn, FromInst: n.chosenSeq}))
	}
	n.tryCompleteElection()
}

// keepPromise holds m, this election's promise from m.from, in sender
// order, in place of an earlier one from the same sender.
func (n *Node) keepPromise(m *message) {
	m.held = true
	i, found := slices.BinarySearchFunc(n.promises, m.from, func(p *message, id int) int { return cmp.Compare(p.from, id) })
	if found {
		n.promises[i].held = false
		n.msgs.put(n.promises[i])
		n.promises[i] = m
		return
	}
	n.promises = slices.Insert(n.promises, i, m)
}

// dropPromises lets go of the last election's promises: each goes back
// to the free list, the one in hand once its handling ends.
func (n *Node) dropPromises() {
	for _, p := range n.promises {
		p.held = false
		if p != n.handling {
			n.msgs.put(p)
		}
	}
	clear(n.promises)
	n.promises = n.promises[:0]
}

func (n *Node) tryCompleteElection() {
	if !n.preparing {
		return
	}
	// Quorum intersection across the activation horizon: open instances ≥
	// chosenSeq may be governed by the active config OR by any change
	// scheduled after it, so the candidate needs a promise majority in
	// every one of them before it may adopt-and-reproprose.
	for _, sc := range n.scheduledConfigs(n.chosenSeq) {
		got := 0
		for _, p := range n.promises {
			if sc.M.IsVoter(p.from) {
				got++
			}
		}
		if got < sc.M.Quorum() {
			return
		}
	}
	var maxChosen uint64
	for _, p := range n.promises {
		if p.ChosenSeq > maxChosen {
			maxChosen = p.ChosenSeq
		}
	}
	if n.chosenSeq < maxChosen {
		return // still catching up; LearnReply will re-trigger
	}
	// Phase 1 complete: adopt the highest-ballot accepted value for every
	// instance at or past chosenSeq and re-run phase 2 for them in order.
	// There can be several: an acceptor that missed the commit of one
	// instance still holds it next to the one opened after it. Promises
	// are walked in sender order, so a tie keeps the same copy every run.
	for _, p := range n.promises {
		for i := range p.Accepted {
			a := p.Accepted[i]
			if a.Inst < n.chosenSeq {
				continue
			}
			if cur, ok := n.accepted[a.Inst]; !ok || cur.Ballot.Less(a.Ballot) {
				n.accepted[a.Inst] = a
			}
		}
	}
	n.dropPromises()
	n.preparing = false
	n.isLeader = true
	n.curLeader = n.cfg.ID
	n.leaderBallot = n.prepBallot
	n.lastHeartbeat = 0
	n.dropLease() // fresh leadership starts with no grants banked
	n.cfg.Metrics.LeaderWins.Inc()
	n.cfg.logf("won election with ballot %v at instance %d", n.prepBallot, n.chosenSeq)
	if a, ok := n.accepted[n.chosenSeq]; ok {
		n.announceAfter = true
		n.startPhase2(n.chosenSeq, a.Val)
		return
	}
	n.becomeLeaderNow()
}

func (n *Node) becomeLeaderNow() {
	n.announceAfter = false
	// Queue the announcement behind any commits already pending so the
	// replica layer observes them before the promotion, exactly as when
	// OnCommitted fired inline.
	n.commits = append(n.commits, commitNote{promote: true})
	n.proposeNext()
}

func (n *Node) onNack(m *message, from int) {
	_ = from
	n.cfg.Metrics.NacksRecv.Inc()
	if n.prepBallot.Less(m.Ballot) || n.promised.Less(m.Ballot) {
		n.observeBallot(m.Ballot)
		if n.preparing {
			n.preparing = false
			n.electionDeadline = n.cfg.Env.Now() + n.electionTimeout()
		}
	}
}

func (n *Node) onAccept(m *message, from int) {
	if !n.configAt(m.Inst).IsVoter(n.cfg.ID) {
		return // learners never accept
	}
	if m.Epoch < n.epochAt(m.Inst) {
		n.sendEpochNack(from)
		return
	}
	if m.Ballot.Less(n.promised) {
		n.cfg.Metrics.NacksSent.Inc()
		n.send(from, n.out(message{Kind: mNack, Ballot: n.promised}))
		return
	}
	if n.promised.Less(m.Ballot) {
		n.promised = m.Ballot
		n.persistPromised()
	}
	n.observeBallot(m.Ballot)
	n.electionDeadline = n.cfg.Env.Now() + n.electionTimeout()
	if m.Inst >= n.chosenSeq {
		if m.Inst > n.chosenSeq {
			// Hole freedom (§3.1): accept instance i only if i-1 was
			// accepted here (or already chosen), so every accepted trace
			// delta extends one this acceptor holds and the committed
			// sequence can never have a hole. An acceptor that missed i-1
			// learns it from the commit or the next heartbeat, and the
			// leader re-sends its open instance until it is chosen.
			if _, ok := n.accepted[m.Inst-1]; !ok {
				return
			}
		}
		a := acceptedEntry{Inst: m.Inst, Ballot: m.Ballot, Val: m.Val}
		n.accepted[m.Inst] = a
		n.persistAccepted(a)
	}
	n.send(from, n.out(message{Kind: mAccepted, Ballot: m.Ballot, Inst: m.Inst}))
}

func (n *Node) onAccepted(m *message, from int) {
	if !n.isLeader || m.Ballot != n.prepBallot {
		return
	}
	st := n.open
	if st == nil || st.inst != m.Inst {
		return
	}
	if !slices.Contains(st.acks, from) {
		st.acks = append(st.acks, from)
	}
	// The open instance closes once it is the next to choose. Acks are
	// counted against the membership governing the instance, so learner
	// acks never count.
	if st.inst != n.chosenSeq {
		return
	}
	cfgm := n.configAt(st.inst)
	got := 0
	for _, id := range st.acks {
		if cfgm.IsVoter(id) {
			got++
		}
	}
	if got < cfgm.Quorum() {
		return
	}
	n.cfg.Metrics.CommitLatency.Observe(n.cfg.Env.Now() - st.sentAt)
	n.announceCommit(st.inst, st.val)
	n.commitValue(st.inst, n.prepBallot, st.val, n.cfg.ID)
}

// announceCommit tells every peer but self (the leader commits locally)
// that val is chosen in inst. A voter of inst's configuration was sent val
// in the Accept, so it gets the commit by reference — instance and ballot
// only; learners and other non-voters never accept, so they get the value.
func (n *Node) announceCommit(inst uint64, val []byte) {
	cfgm := n.configAt(inst)
	epoch := n.epochAt(inst)
	for _, peer := range n.peerList() {
		switch {
		case peer == n.cfg.ID:
		case cfgm.IsVoter(peer):
			n.send(peer, n.out(message{Kind: mCommitRef, Ballot: n.prepBallot, Inst: inst, Epoch: epoch}))
		default:
			n.send(peer, n.out(message{Kind: mCommit, Ballot: n.prepBallot, Inst: inst, Val: val, Epoch: epoch}))
		}
	}
}

// onCommitRef commits the value this node accepted in m.Inst at m.Ballot.
// A leader proposes exactly one value per (instance, ballot), so an
// accepted entry with that ballot holds the chosen value. Without one —
// the Accept was lost, or a later ballot's Accept replaced it — the node
// learns the value from the sender instead.
func (n *Node) onCommitRef(m *message, from int) {
	if m.Inst < n.chosenSeq {
		return
	}
	if a, ok := n.accepted[m.Inst]; ok && a.Ballot == m.Ballot {
		n.commitValue(m.Inst, m.Ballot, a.Val, from)
		return
	}
	n.cfg.Metrics.LearnReqs.Inc()
	n.send(from, n.out(message{Kind: mLearn, FromInst: n.chosenSeq}))
}

func (n *Node) onHeartbeat(m *message, from int) {
	if !n.activeConfig().IsVoter(from) {
		// A non-voter (typically a removed ex-leader that has not yet
		// learned the change) must not suppress elections; teach it.
		if m.Epoch < n.activeEpoch {
			n.sendEpochNack(from)
		}
		return
	}
	if m.Ballot.Less(n.promised) {
		return // stale leader
	}
	if n.promised.Less(m.Ballot) {
		n.promised = m.Ballot
		n.persistPromised()
	}
	n.observeBallot(m.Ballot)
	n.electionDeadline = n.cfg.Env.Now() + n.electionTimeout()
	n.grantLease(m, from)
	if m.ChosenSeq > n.chosenSeq {
		n.cfg.Metrics.LearnReqs.Inc()
		n.send(from, n.out(message{Kind: mLearn, FromInst: n.chosenSeq}))
	}
}

func (n *Node) onLearn(m *message, from int) {
	if m.FromInst < n.chosenBase {
		// Compacted away: the peer needs a checkpoint transfer, which the
		// Rex layer handles; point it at our compaction horizon.
		n.send(from, n.out(message{Kind: mLearnNack, FromInst: n.chosenBase}))
		return
	}
	const batch = 64
	reply := n.out(message{Kind: mLearnReply, FromInst: m.FromInst})
	for i := m.FromInst; i < n.chosenSeq && len(reply.Vals) < batch; i++ {
		reply.Vals = append(reply.Vals, n.chosen[i-n.chosenBase])
	}
	if len(reply.Vals) > 0 {
		n.send(from, reply)
	}
}

// commitValue learns that val was chosen in inst, at ballot b when the
// caller knows it (zero otherwise).
func (n *Node) commitValue(inst uint64, b Ballot, val []byte, from int) {
	if inst < n.chosenSeq {
		return
	}
	if inst > n.chosenSeq {
		// Gap: stash and ask for the missing prefix. The stash keeps the
		// value, not the ballot, so it is recorded with its bytes.
		n.pendingVal[inst] = val
		n.cfg.Metrics.LearnReqs.Inc()
		n.send(from, n.out(message{Kind: mLearn, FromInst: n.chosenSeq}))
		return
	}
	for {
		if n.open != nil && n.open.inst == inst {
			// Chosen, whether our quorum or a peer's commit taught us.
			n.open = nil
		}
		n.persistChosen(inst, b, val)
		n.chosen = append(n.chosen, val)
		n.chosenSeq++
		n.cfg.Metrics.Commits.Inc()
		delete(n.accepted, inst)
		n.commits = append(n.commits, commitNote{inst: inst, val: val})
		n.maybeScheduleFromValue(inst, val)
		if n.isLeader && n.announceAfter {
			// Re-proposal(s) from takeover committed: check whether the
			// next instance also has an accepted value to re-propose.
			if a, ok := n.accepted[n.chosenSeq]; ok {
				n.startPhase2(n.chosenSeq, a.Val)
			} else {
				n.becomeLeaderNow()
			}
		}
		next, ok := n.pendingVal[n.chosenSeq]
		if !ok {
			break
		}
		delete(n.pendingVal, n.chosenSeq)
		inst, b, val = n.chosenSeq, Ballot{}, next
	}
	n.checkActivation()
	if n.isLeader {
		n.proposeNext()
	}
	if n.preparing {
		// Catch-up during an election: we may now satisfy the
		// chosen-count requirement.
		n.tryCompleteElection()
	}
}

func (n *Node) startPhase2(inst uint64, val []byte) {
	n.cfg.Metrics.Proposals.Inc()
	n.inflight = inflightState{
		inst:   inst,
		val:    val,
		acks:   n.inflight.acks[:0],
		sentAt: n.cfg.Env.Now(),
	}
	n.open = &n.inflight
	n.broadcast(n.out(message{Kind: mAccept, Ballot: n.prepBallot, Inst: inst, Val: val, Epoch: n.epochAt(inst)}))
}

// proposeNext opens instance chosenSeq when none is open: with the head of
// the propose queue or, when the queue is empty and a scheduled membership
// has not activated yet, with a no-op. Activation happens only when
// chosenSeq crosses the horizon, and with no client traffic nothing else
// advances it.
func (n *Node) proposeNext() {
	if !n.isLeader || n.announceAfter || n.open != nil {
		return
	}
	switch {
	case len(n.proposeQ) > 0:
		val := n.proposeQ[0]
		n.proposeQ = n.proposeQ[1:]
		n.startPhase2(n.chosenSeq, val)
	case n.configs[len(n.configs)-1].FromInst > n.chosenSeq:
		n.startPhase2(n.chosenSeq, reconfig.PaddingValue())
	}
}

func (n *Node) handleCompact(upTo uint64) {
	if upTo <= n.chosenBase {
		return
	}
	if upTo > n.chosenSeq {
		upTo = n.chosenSeq
	}
	// In place, so appends after a compaction reuse the array.
	kept := copy(n.chosen, n.chosen[upTo-n.chosenBase:])
	clear(n.chosen[kept:])
	n.chosen = n.chosen[:kept]
	n.chosenBase = upTo
	// Rewrite the durable log with the surviving state. Chosen values go
	// with their bytes: their accepted records are not rewritten.
	var recs [][]byte
	e := wire.NewEncoder(nil)
	e.Byte(recPromised)
	e.Uvarint(n.promised.Round)
	e.Uvarint(uint64(n.promised.Node))
	recs = append(recs, append([]byte(nil), e.Bytes()...))
	// In instance order, so the rewritten log is the same on every run.
	insts := make([]uint64, 0, len(n.accepted))
	for inst := range n.accepted {
		insts = append(insts, inst)
	}
	slices.Sort(insts)
	for _, inst := range insts {
		a := n.accepted[inst]
		if a.Inst < upTo {
			continue
		}
		e.Reset()
		e.Byte(recAccepted)
		e.Uvarint(a.Inst)
		e.Uvarint(a.Ballot.Round)
		e.Uvarint(uint64(a.Ballot.Node))
		e.BytesVal(a.Val)
		recs = append(recs, append([]byte(nil), e.Bytes()...))
	}
	for i, v := range n.chosen {
		e.Reset()
		e.Byte(recChosen)
		e.Uvarint(n.chosenBase + uint64(i))
		e.BytesVal(v)
		recs = append(recs, append([]byte(nil), e.Bytes()...))
	}
	// The membership schedule must survive the rewrite: the reconfig
	// values that produced it may live in the compacted-away prefix.
	for _, sc := range n.scheduledConfigs(n.chosenBase) {
		e.Reset()
		e.Byte(recConfig)
		e.Uvarint(sc.FromInst)
		e.BytesVal(reconfig.EncodeValue(sc.M))
		recs = append(recs, append([]byte(nil), e.Bytes()...))
	}
	if err := n.cfg.Log.Rewrite(recs); err != nil {
		n.storageFailed("rewrite", err)
	}
}

// IsLeader reports whether this node currently believes it is the leader.
// Racy by nature; for tests and diagnostics.
func (n *Node) IsLeader() bool { return n.isLeader }
