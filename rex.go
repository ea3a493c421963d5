// Package rex is a replicated state machine framework for multi-core
// servers, reproducing "Rex: Replication at the Speed of Multi-core"
// (Guo et al., EuroSys 2014).
//
// Standard state-machine replication agrees on a total order of requests
// and executes them sequentially, wasting multi-core hardware. Rex instead
// uses an execute-agree-follow model: the primary executes request
// handlers concurrently, recording synchronization decisions as a
// partially ordered trace; replicas agree on a sequence of growing traces
// through Paxos; and secondaries replay the trace concurrently, making the
// same synchronization choices to reach the same state.
//
// # Building an application
//
// Implement StateMachine, coordinating all shared state exclusively with
// the primitives created from the Runtime your Factory receives:
//
//	type Counter struct {
//		mu *rex.Lock
//		n  int64
//	}
//
//	func NewCounter(rt *rex.Runtime, host *rex.TimerHost) rex.StateMachine {
//		return &Counter{mu: rex.NewLock(rt, "counter")}
//	}
//
//	func (c *Counter) Apply(ctx *rex.Ctx, req []byte) []byte {
//		w := ctx.Worker()
//		c.mu.Lock(w)
//		c.n++
//		v := c.n
//		c.mu.Unlock(w)
//		return []byte(strconv.FormatInt(v, 10))
//	}
//
// Handlers must be deterministic apart from the Rex primitives and Ctx's
// recorded helpers (Ctx.Now, Ctx.Rand). Run replicas with NewReplica
// (see Config), or assemble an in-process cluster with NewCluster — on the
// real environment (NewRealEnv) or the deterministic simulator
// (NewSimEnv), which models a configurable number of cores and makes whole
// cluster runs, elections and failovers reproducible.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the paper's
// reproduced evaluation.
package rex

import (
	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/readpath"
	"rex/internal/rexsync"
	"rex/internal/sched"
	"rex/internal/sim"
)

// Core application API.
type (
	// StateMachine is the replicated application (the paper's RexRSM).
	StateMachine = core.StateMachine
	// QueryHandler optionally serves read-only queries outside the
	// replication protocol.
	QueryHandler = core.QueryHandler
	// Factory constructs the application deterministically on every
	// replica.
	Factory = core.Factory
	// TimerHost registers background tasks (the paper's AddTimer).
	TimerHost = core.TimerHost
	// Ctx is a handler's execution context, bound to one logical thread.
	Ctx = core.Ctx
	// Runtime owns a replica's logical threads; primitives are created
	// against it.
	Runtime = sched.Runtime
	// Worker is one logical thread.
	Worker = sched.Worker
)

// Synchronization primitives (Fig. 3 / Table 1).
type (
	// Lock is Rex's mutex, with TryLock.
	Lock = rexsync.Lock
	// RWLock is Rex's readers–writer lock.
	RWLock = rexsync.RWLock
	// Cond is Rex's condition variable.
	Cond = rexsync.Cond
	// Semaphore is Rex's counting semaphore.
	Semaphore = rexsync.Semaphore
)

// Primitive constructors.
var (
	NewLock      = rexsync.NewLock
	NewRWLock    = rexsync.NewRWLock
	NewCond      = rexsync.NewCond
	NewSemaphore = rexsync.NewSemaphore
)

// Conflict classes (DESIGN.md §12): state machines that additionally
// implement ConflictClassifier get per-class thread dispatch and
// lock-event elision on class-owned locks.
type (
	// ConflictClass partitions requests that provably cannot conflict
	// across classes; ConflictAll is the catch-all.
	ConflictClass = core.ConflictClass
	// ConflictClassifier is optionally implemented by a StateMachine to
	// map each request to its conflict class.
	ConflictClassifier = core.ConflictClassifier
)

// ConflictAll is the catch-all conflict class: a request that may
// conflict with anything, dispatched under an admission barrier.
const ConflictAll = core.ConflictAll

// Class-owned primitive constructors: lock events taken by the owning
// class are elided from the trace and reconstructed from program order
// on replay.
var (
	NewLockInClass   = rexsync.NewLockInClass
	NewRWLockInClass = rexsync.NewRWLockInClass
)

// Replication engine.
type (
	// Replica is one Rex replica.
	Replica = core.Replica
	// Config configures a replica.
	Config = core.Config
	// Role is a replica's current role.
	Role = core.Role
	// Stats is a replica's counter snapshot.
	Stats = core.Stats
	// ErrNotPrimary redirects a client to the leader.
	ErrNotPrimary = core.ErrNotPrimary
	// NativeHost runs a state machine unreplicated (the native baseline).
	NativeHost = core.NativeHost
)

// Replica roles.
const (
	RoleSecondary = core.RoleSecondary
	RolePrimary   = core.RolePrimary
	RoleFaulted   = core.RoleFaulted
)

// NewReplica creates a replica from a Config.
var NewReplica = core.NewReplica

// NewNativeHost runs a state machine without replication.
var NewNativeHost = core.NewNativeHost

// Execution environments.
type (
	// Env abstracts the execution environment (tasks, clock, CPU model).
	Env = env.Env
	// SimEnv is the deterministic simulated environment.
	SimEnv = sim.Env
)

// Group is a WaitGroup equivalent that works under both environments.
type Group = env.Group

// NewGroup returns a Group for the given environment.
var NewGroup = env.NewGroup

// NewRealEnv returns the real execution environment (goroutines, wall
// clock, CPU spinning).
func NewRealEnv() Env { return env.NewReal() }

// NewSimEnv returns a deterministic simulated environment modeling the
// given number of CPU cores; drive it with its Run method.
func NewSimEnv(cores int) *SimEnv { return sim.New(cores) }

// In-process clusters.
type (
	// Cluster is an in-process replica group with a simulated network.
	Cluster = cluster.Cluster
	// ClusterOptions describes an in-process cluster: its size and durable
	// stores, plus Template, the Config every replica is built from (the
	// cluster fills in ID, N, Env, Endpoint, Log, Snapshots and Factory).
	ClusterOptions = cluster.Options
	// Client submits requests with retry and primary discovery.
	Client = cluster.Client
)

// NewCluster assembles an in-process cluster (call Start on it).
var NewCluster = cluster.New

// Read path (DESIGN.md §11).
type (
	// ReadLevel is a read's consistency level, passed to Client.QueryLevel.
	ReadLevel = readpath.Level
	// ReadToken is a client session token carried across writes and
	// session-level reads for read-your-writes / monotonic reads.
	ReadToken = readpath.Token
)

// Consistency levels for Client.QueryLevel.
const (
	// Linearizable reads observe every write committed before the read
	// was issued; served by the primary off a quorum read lease, or a
	// consensus barrier when the lease is unavailable.
	Linearizable = readpath.Linearizable
	// Session reads may be served by any replica whose replayed frontier
	// covers the client's session token (read-your-writes, monotonic
	// reads within the session).
	Session = readpath.Session
	// Eventual reads are served immediately by any replica.
	Eventual = readpath.Eventual
)

// ParseReadLevel parses "linearizable", "session", or "eventual".
var ParseReadLevel = readpath.ParseLevel
