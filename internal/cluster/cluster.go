// Package cluster assembles in-process Rex clusters — replicas, a
// simulated network, per-replica durable state, and retrying clients —
// shared by integration tests, benchmarks, and examples.
package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"rex/internal/check"
	"rex/internal/client"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/readpath"
	"rex/internal/reconfig"
	"rex/internal/storage"
	"rex/internal/transport"
)

// netDelay is the one-way delay of the simulated network a cluster builds
// when Options.Endpoints is unset.
const netDelay = 500 * time.Microsecond

// Options describe an in-process cluster: the replicas' configuration
// and what the harness itself owns. Zero values take defaults suited to
// the simulator.
type Options struct {
	Replicas int
	// Template configures every replica. config(i) copies it and
	// overwrites the fields the cluster owns: ID, N, Env, Endpoint, Log,
	// Snapshots and Factory. A zero Seed becomes 1; it also seeds the
	// simulated network.
	Template core.Config
	// Derive, when set, adjusts replica i's config after the cluster has
	// filled in its own fields (cfg.ID is i). NewMulti uses it to apply
	// shard.ReplicaConfig, the per-group derivation sharded processes use.
	Derive func(cfg core.Config) core.Config
	// Endpoints, when set, supplies replica i's network attachment instead
	// of a cluster-private transport.Network (Net stays nil). The shard
	// package uses this to run one group over a node-level endpoint mesh
	// shared with other groups; each call must return a fresh endpoint
	// (Restart relies on that for an empty inbox).
	Endpoints func(i int) transport.Endpoint
	// Machines, when set (one entry per replica), pins replicas to these
	// pre-created simulator machines instead of adding a machine per
	// replica. The shard package uses this so every group hosted on one
	// node shares that node's CPU cores, like colocated processes do.
	Machines []int
	// LiveRebalance (NewMulti only) wraps every group's application with
	// the rebalance ownership layer (internal/rebalance): the map gets
	// hash ranges, group 0 hosts the map consensus sequence, routers from
	// NewRouter speak the rebalance envelope, and NewCoordinator can
	// split/merge/move ranges under traffic.
	LiveRebalance bool
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 3
	}
	if o.Template.Seed == 0 {
		o.Template.Seed = 1
	}
	return o
}

// machineEnv is implemented by the simulator: independent per-replica CPU
// pools, matching the paper's one-server-per-replica testbed.
type machineEnv interface {
	AddMachine(cores int) int
	GoOn(machine int, name string, fn func())
	Cores() int
}

// Cluster is a running in-process replica group.
//
// The exported slices are indexed by replica id and only ever grow
// (AddNode); mu guards them because growth races concurrent clients.
// Prefer Replica/Size over direct slice access in concurrent contexts.
//
// Each replica keeps its WAL and snapshots on its own in-memory disk
// (storage.OpenStores), and every start reopens them, as a process does.
type Cluster struct {
	Env      env.Env
	Net      *transport.Network
	Opts     Options
	Factory  core.Factory
	Replicas []*core.Replica
	Disks    []*storage.MemDisk
	Snaps    []storage.SnapshotStore // replica i's store as of its last start
	machines []int                   // simulated machine per replica (-1 without machineEnv)

	mu env.Mutex
}

// Replica returns replica i, or nil if it is down or out of range.
func (c *Cluster) Replica(i int) *core.Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.Replicas) {
		return nil
	}
	return c.Replicas[i]
}

// Size returns the number of replica slots (including crashed ones).
func (c *Cluster) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.Replicas)
}

// live snapshots the replica table for iteration without holding mu.
func (c *Cluster) live() []*core.Replica {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*core.Replica(nil), c.Replicas...)
}

// New builds (but does not start) a cluster.
func New(e env.Env, factory core.Factory, opts Options) *Cluster {
	opts = opts.withDefaults()
	c := &Cluster{
		Env:     e,
		Opts:    opts,
		Factory: factory,
		mu:      e.NewMutex(),
	}
	if opts.Endpoints == nil {
		c.Net = transport.NewNetwork(e, opts.Replicas, netDelay, opts.Template.Seed)
	}
	for i := 0; i < opts.Replicas; i++ {
		c.Disks = append(c.Disks, storage.NewMemDisk())
		c.Snaps = append(c.Snaps, nil)
		c.Replicas = append(c.Replicas, nil)
		c.machines = append(c.machines, -1)
	}
	if len(opts.Machines) == opts.Replicas {
		copy(c.machines, opts.Machines)
	} else if me, ok := e.(machineEnv); ok {
		// Under the simulator, every replica gets its own machine with as
		// many cores as machine 0 (the paper's identical servers).
		for i := 0; i < opts.Replicas; i++ {
			c.machines[i] = me.AddMachine(me.Cores())
		}
	}
	return c
}

// config opens replica i's durable state from its disk and returns its
// configuration.
func (c *Cluster) config(i int) (core.Config, error) {
	ep := c.Opts.Endpoints
	if ep == nil {
		ep = c.Net.Endpoint
	}
	cfg := c.Opts.Template
	cfg.ID = i
	cfg.N = c.Opts.Replicas
	cfg.Env = c.Env
	cfg.Factory = c.Factory
	log, snaps, err := storage.OpenStores(c.Env, c.Disks[i])
	if err != nil {
		return cfg, err
	}
	c.mu.Lock()
	c.Snaps[i] = snaps
	c.mu.Unlock()
	cfg.Endpoint = ep(i)
	cfg.Log = log
	cfg.Snapshots = snaps
	if c.Opts.Derive != nil {
		cfg = c.Opts.Derive(cfg)
	}
	return cfg, nil
}

// startReplica constructs and starts replica i on its machine (if the
// environment models machines), so its execution and replay compute on its
// own simulated server.
func (c *Cluster) startReplica(i int) error {
	var err error
	boot := func() {
		var cfg core.Config
		var r *core.Replica
		if cfg, err = c.config(i); err == nil {
			r, err = core.NewReplica(cfg)
		}
		if err == nil {
			err = r.Start()
		}
		if err == nil {
			c.mu.Lock()
			c.Replicas[i] = r
			c.mu.Unlock()
		}
	}
	me, ok := c.Env.(machineEnv)
	if !ok || c.machines[i] < 0 {
		boot()
		return err
	}
	done := c.Env.NewChan(1)
	me.GoOn(c.machines[i], fmt.Sprintf("replica-%d-boot", i), func() {
		boot()
		done.Send(nil)
	})
	done.Recv()
	return err
}

// Start brings every replica up.
func (c *Cluster) Start() error {
	for i := range c.Replicas {
		if err := c.startReplica(i); err != nil {
			return err
		}
	}
	return nil
}

// Stop shuts every live replica down.
func (c *Cluster) Stop() {
	for _, r := range c.live() {
		if r != nil {
			r.Stop()
		}
	}
}

// Primary returns the current primary's index, or -1.
func (c *Cluster) Primary() int {
	for i, r := range c.live() {
		if r != nil && r.Role() == core.RolePrimary {
			return i
		}
	}
	return -1
}

// WaitPrimary polls until some replica is primary.
func (c *Cluster) WaitPrimary(timeout time.Duration) (int, error) {
	deadline := c.Env.Now() + timeout
	for c.Env.Now() < deadline {
		if p := c.Primary(); p >= 0 {
			return p, nil
		}
		c.Env.Sleep(2 * time.Millisecond)
	}
	return -1, errors.New("cluster: no primary elected in time")
}

// Crash stops replica i, cuts it from the network and cuts the power to
// its disk, which keeps every acknowledged WAL record and saved snapshot
// for a later Restart. With external endpoints (Opts.Endpoints) there is
// no cluster-private network to cut; stopping the replica closes its
// endpoint, which is the process dying.
func (c *Cluster) Crash(i int) {
	if c.Net != nil {
		c.Net.Isolate(i, true)
	}
	c.mu.Lock()
	r := c.Replicas[i]
	c.Replicas[i] = nil
	disk := c.Disks[i]
	c.mu.Unlock()
	if r != nil {
		r.Stop()
	}
	disk.Crash(0)
}

// Restart brings a crashed replica back, reopening its durable state
// from its disk.
func (c *Cluster) Restart(i int) error {
	if c.Replica(i) != nil {
		return fmt.Errorf("cluster: replica %d still running", i)
	}
	if c.Net != nil {
		c.Net.Reset(i) // fresh inbox: the crashed process's socket is gone
		c.Net.Isolate(i, false)
	}
	return c.startReplica(i)
}

// RestartFresh brings replica i back with an empty disk (a replaced
// machine), forcing a checkpoint transfer if the cluster compacted.
func (c *Cluster) RestartFresh(i int) error {
	c.mu.Lock()
	c.Disks[i] = storage.NewMemDisk()
	c.mu.Unlock()
	return c.Restart(i)
}

// addSlot grows the cluster's tables (and network) by one replica slot and
// returns the new id. The replica itself is not started.
func (c *Cluster) addSlot() int {
	c.mu.Lock()
	id := len(c.Replicas)
	c.Replicas = append(c.Replicas, nil)
	c.Disks = append(c.Disks, storage.NewMemDisk())
	c.Snaps = append(c.Snaps, nil)
	machine := -1
	if me, ok := c.Env.(machineEnv); ok && c.machines[0] >= 0 {
		machine = me.AddMachine(me.Cores())
	}
	c.machines = append(c.machines, machine)
	c.mu.Unlock()
	if c.Net != nil {
		c.Net.Grow(id + 1)
	}
	return id
}

// AddNode grows the cluster by one replica: it allocates the next id, asks
// the primary to admit it as a learner, and boots it. The joiner catches up
// from the chosen log (or a checkpoint transfer) and is promoted to voter
// automatically; use WaitVoter to block until then.
func (c *Cluster) AddNode() (int, error) {
	id := c.addSlot()
	if err := c.NewClient(0).AddMember(id, ""); err != nil {
		return -1, err
	}
	if err := c.startReplica(id); err != nil {
		return -1, err
	}
	return id, nil
}

// RemoveNode commits the removal of replica id. The node stays up serving
// the pre-activation window, then parks itself in RoleRemoved; call Crash
// to reap it once WaitRemoved observes the change.
func (c *Cluster) RemoveNode(id int) error {
	return c.NewClient(0).RemoveMember(id)
}

// ReplaceNode swaps failed (or retiring) replica oldID for a brand-new one
// in a single committed change and boots the replacement; returns the new
// replica's id.
func (c *Cluster) ReplaceNode(oldID int) (int, error) {
	id := c.addSlot()
	if err := c.NewClient(0).ReplaceMember(oldID, id, ""); err != nil {
		return -1, err
	}
	if err := c.startReplica(id); err != nil {
		return -1, err
	}
	return id, nil
}

// WaitMembership polls the primary's committed membership until pred holds.
func (c *Cluster) WaitMembership(timeout time.Duration, pred func(reconfig.Membership) bool) error {
	deadline := c.Env.Now() + timeout
	for c.Env.Now() < deadline {
		if p := c.Primary(); p >= 0 {
			if r := c.Replica(p); r != nil && pred(r.Membership()) {
				return nil
			}
		}
		c.Env.Sleep(5 * time.Millisecond)
	}
	return errors.New("cluster: membership condition not reached in time")
}

// WaitVoter blocks until replica id is a voter in the primary's view.
func (c *Cluster) WaitVoter(id int, timeout time.Duration) error {
	return c.WaitMembership(timeout, func(m reconfig.Membership) bool { return m.IsVoter(id) })
}

// WaitRemoved blocks until replica id has left the primary's membership
// AND the node itself (if still running) has parked in RoleRemoved.
func (c *Cluster) WaitRemoved(id int, timeout time.Duration) error {
	if err := c.WaitMembership(timeout, func(m reconfig.Membership) bool { return !m.IsMember(id) }); err != nil {
		return err
	}
	deadline := c.Env.Now() + timeout
	for c.Env.Now() < deadline {
		r := c.Replica(id)
		if r == nil || r.Role() == core.RoleRemoved {
			return nil
		}
		c.Env.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("cluster: replica %d did not go quiet in time", id)
}

// WaitConverged waits until every live replica reports the same stable
// application state (serialized via WriteCheckpoint) and returns it.
func (c *Cluster) WaitConverged(timeout time.Duration) (string, error) {
	states, faults, err := c.StableStates(timeout)
	if err != nil {
		return "", err
	}
	for _, ferr := range faults {
		return "", fmt.Errorf("cluster: replica faulted: %w", ferr)
	}
	if len(check.StateAgreement(states)) > 0 {
		return "", errors.New("cluster: replicas did not converge")
	}
	var state string
	for _, state = range states { // all agree: any one
	}
	return state, nil
}

// StableStates waits until every live replica's serialized application
// state stops changing and returns the states by replica index. It does
// not require the states to agree: the chaos checker compares them
// itself, so a divergence becomes a reported violation instead of a
// timeout here. Replicas that crashed on a storage fault are returned in
// faults rather than treated as an error.
func (c *Cluster) StableStates(timeout time.Duration) (states map[int]string, faults map[int]error, err error) {
	deadline := c.Env.Now() + timeout
	var last string
	stable := 0
	for c.Env.Now() < deadline {
		cur := make(map[int]string)
		curFaults := make(map[int]error)
		quiesced := true
		seq := uint64(0)
		haveSeq := false
		for i, r := range c.live() {
			if r == nil || r.Role() == core.RoleRemoved {
				continue // removed nodes froze mid-stream; like a crash
			}
			if r.Role() == core.RoleFaulted {
				curFaults[i] = r.FaultError()
				continue
			}
			// Quiescence means no live replica is still catching up: all
			// share one chosen sequence and have applied everything in it.
			// Without this, a frozen-but-lagging replica (e.g. one still
			// bridging a compaction gap) reads as a stable divergence.
			base, vals := r.ChosenLog()
			s := base + uint64(len(vals))
			if r.Stats().Applied < s {
				quiesced = false
			}
			if haveSeq && s != seq {
				quiesced = false
			}
			seq, haveSeq = s, true
			var buf bytes.Buffer
			if err := r.StateMachineForTest().WriteCheckpoint(&buf); err != nil {
				return nil, nil, err
			}
			cur[i] = buf.String()
		}
		// Compare the whole snapshot (states and fault set) for stability.
		key := fmt.Sprintf("%v|%v", cur, curFaults)
		if quiesced && key == last {
			stable++
			if stable >= 3 {
				return cur, curFaults, nil
			}
		} else {
			stable = 0
			last = key
		}
		c.Env.Sleep(20 * time.Millisecond)
	}
	return nil, nil, errors.New("cluster: replica states did not stabilize in time")
}

// Check is the structural check every simulated run ends in: once c's
// live replicas settle (StableStates), a replica that faulted, replicas
// that disagree on the application state (check.StateAgreement) and
// chosen logs that are not prefixes of one another (check.CheckPrefix)
// are each a violation. settled is false when the replicas never settled.
func (c *Cluster) Check() (violations []string, settled bool) {
	states, faulted, err := c.StableStates(30 * time.Second)
	if err != nil {
		return []string{err.Error()}, false
	}
	for i, ferr := range faulted {
		violations = append(violations, fmt.Sprintf("replica %d faulted after recovery: %v", i, ferr))
	}
	violations = append(violations, check.StateAgreement(states)...)
	var logs []check.ChosenLog
	for i, r := range c.live() {
		if r != nil {
			base, vals := r.ChosenLog()
			logs = append(logs, check.ChosenLog{Replica: i, Base: base, Vals: vals})
		}
	}
	return append(violations, check.CheckPrefix(logs)...), true
}

// RestartDown restarts every member of c that is down: crashed, or
// crash-stopped by an injected WAL error. Any other fault stays for Check
// to report, and a replica that left the membership stays out (restarting
// its old identity would only be refused again).
func (c *Cluster) RestartDown() error {
	for i := 0; i < c.Size(); i++ {
		if r := c.Replica(i); r != nil && errors.Is(r.FaultError(), storage.ErrInjected) {
			c.Crash(i) // reap the crash-stopped process
		}
		if c.Replica(i) == nil && c.isMember(i) {
			if logf := c.Opts.Template.Logf; logf != nil {
				logf("cluster: restart replica %d", i)
			}
			if err := c.Restart(i); err != nil {
				return err
			}
		}
	}
	return nil
}

// isMember reports whether replica i is in the membership the current
// primary knows (true when there is no primary to ask).
func (c *Cluster) isMember(i int) bool {
	if p := c.Primary(); p >= 0 {
		if r := c.Replica(p); r != nil {
			return r.Membership().IsMember(i)
		}
	}
	return true
}

// Client is the shared client loop (internal/client) over a cluster's
// in-process replicas.
type Client = client.Client

// ErrPermanent marks failures no retry against the same target can fix
// (client.ErrPermanent).
var ErrPermanent = client.ErrPermanent

// NewClient returns a client with the given unique id.
func (c *Cluster) NewClient(id uint64) *Client {
	return client.New(inProcess{c}, id)
}

// inProcess is the client loop's transport over the cluster's replicas:
// direct calls, with the cluster's Env as the clock. A crashed replica's
// empty slot is client.ErrUnreachable.
type inProcess struct{ c *Cluster }

func (t inProcess) Size() int                                { return t.c.Size() }
func (t inProcess) Now() time.Duration                       { return t.c.Env.Now() }
func (t inProcess) Sleep(_ context.Context, d time.Duration) { t.c.Env.Sleep(d) }

func (t inProcess) Submit(i int, cl, seq uint64, body []byte, budget time.Duration) ([]byte, readpath.Token, error) {
	r := t.c.Replica(i)
	if r == nil {
		return nil, readpath.Token{}, client.ErrUnreachable
	}
	return r.SubmitTokenDeadline(cl, seq, body, budget)
}

func (t inProcess) QueryLevel(i int, level readpath.Level, tok readpath.Token, q []byte, _ time.Duration) ([]byte, readpath.Token, error) {
	r := t.c.Replica(i)
	if r == nil {
		return nil, tok, client.ErrUnreachable
	}
	return r.QueryLevel(level, tok, q)
}

func (t inProcess) Query(i int, q []byte, _ time.Duration) ([]byte, error) {
	r := t.c.Replica(i)
	if r == nil {
		return nil, client.ErrUnreachable
	}
	return r.Query(q)
}

func (t inProcess) Reconfig(i int, ch client.Change, _ time.Duration) error {
	r := t.c.Replica(i)
	if r == nil {
		return client.ErrUnreachable
	}
	return ch.Apply(r)
}
