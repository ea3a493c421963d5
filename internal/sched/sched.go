// Package sched implements Rex's execution engine: the fixed pool of
// logical threads a replica runs request handlers on, the recorder that
// captures synchronization events and causal edges on the primary (execute
// stage), and the replayer that enforces them on secondaries (follow
// stage).
//
// A logical thread (Worker) is the unit of identity in traces. Request
// handlers never see goroutines directly; they receive a context bound to a
// Worker, and every synchronization primitive and nondeterministic helper
// routes through it. This is the Go equivalent of the paper's thread-local
// execution mode (Fig. 3).
package sched

import (
	"fmt"
	"sync/atomic"

	"rex/internal/env"
	"rex/internal/trace"
	"rex/internal/vclock"
)

// Mode is a worker's execution mode.
type Mode uint8

const (
	// ModeNative runs primitives as plain locks with no recording or
	// replaying: used for standalone (unreplicated) execution, for
	// read-only handler pools (hybrid execution, §4), and inside
	// NativeExec scopes (§5.1).
	ModeNative Mode = iota
	// ModeRecord captures events and causal edges (primary, execute stage).
	ModeRecord
	// ModeReplay follows a committed trace (secondary, follow stage).
	ModeReplay
)

func (m Mode) String() string {
	switch m {
	case ModeNative:
		return "native"
	case ModeRecord:
		return "record"
	case ModeReplay:
		return "replay"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Runtime owns the logical threads and the record/replay machinery of one
// replica. Mode changes (replay → record at promotion, §4) happen only at
// global barriers, when every worker is quiescent.
type Runtime struct {
	Env env.Env

	// CheckVersions enables resource version checking (§5.1): replay
	// verifies each resource is used in the same order as recorded, which
	// surfaces data races early. On by default.
	CheckVersions bool

	// DisablePruning turns off vector-clock edge pruning (§4.2): every
	// causal edge is recorded even when implied by recorded edges and
	// program order. For the pruning ablation benchmark.
	DisablePruning bool

	// UnsafeSkipEdgeWaits injects a replay bug: replayers release events
	// without waiting for their causal predecessors. Test-only — it exists
	// so the chaos consistency checker can demonstrate that it detects a
	// broken replayer (see internal/chaos).
	UnsafeSkipEdgeWaits bool

	// TotalOrderTryFail records failed TryLocks in the per-resource total
	// order (Fig. 4 left) instead of the ground-truth partial order
	// (Fig. 4 right). For the partial-order ablation benchmark.
	TotalOrderTryFail bool

	// DisableConflictElision turns off conflict-class lock-event elision:
	// lock events on class-owned resources are traced even when the
	// executing worker's conflict class matches the resource's. Must be
	// set identically on every replica of a group (like DisablePruning) —
	// the elision decision is part of the trace's meaning.
	DisableConflictElision bool

	// elidedOps counts lock operations whose trace events were elided
	// because the executing worker's conflict class owned the resource.
	elidedOps atomic.Uint64

	// Obs, when non-nil, collects follow-stage metrics. Set it before the
	// first StartReplay; the same series are handed to every replayer the
	// runtime builds, so they survive promotions and snapshot restores.
	Obs *ReplayObs

	mode  Mode
	epoch uint64
	// baseVC holds the per-thread clock floor of the current epoch (the
	// promotion cut): workers resume their event clocks from it. It is NOT
	// a pruning floor — although the promotion barrier orders everything
	// before the cut ahead of everything after it in real time on the
	// promoted node, that ordering is invisible to replaying secondaries,
	// so a worker's pruning clock restarts covering only its OWN prefix
	// (program order). Cross-thread edges into pre-cut events are then
	// recorded explicitly, as replay correctness requires.
	baseVC vclock.VC

	workers []*Worker
	rec     *Recorder
	rep     *Replayer

	resMu   env.Mutex
	nextRes uint32
	// versions[id] is resource id's version counter (§5.1). Versions live
	// in the runtime — not in the wrapper objects — because they are
	// replicated state: a checkpoint captures them and a restore puts them
	// back, so version checking stays sound across recovery. Each counter
	// is its own allocation so the pointers wrappers hold stay valid as
	// the registry grows.
	versions []*uint64
}

// NewRuntime creates a runtime with n logical threads in the given mode.
// Timer threads count toward n; callers allocate worker ids [0, n).
func NewRuntime(e env.Env, n int, mode Mode) *Runtime {
	rt := &Runtime{
		Env:           e,
		CheckVersions: true,
		mode:          mode,
		baseVC:        vclock.New(n),
		resMu:         e.NewMutex(),
	}
	for i := 0; i < n; i++ {
		rt.workers = append(rt.workers, &Worker{
			rt: rt,
			id: int32(i),
			vc: vclock.New(n),
		})
	}
	return rt
}

// NumThreads returns the number of logical threads.
func (rt *Runtime) NumThreads() int { return len(rt.workers) }

// Worker returns logical thread i.
func (rt *Runtime) Worker(i int) *Worker { return rt.workers[i] }

// NativeWorker returns a worker that always executes natively, for
// read-only handler pools (hybrid execution). Its id is outside the traced
// thread range.
func (rt *Runtime) NativeWorker() *Worker {
	return &Worker{rt: rt, id: -1, fixedNative: true}
}

// Mode returns the runtime's current mode. It is only changed at global
// barriers, so a plain read is safe for workers.
func (rt *Runtime) Mode() Mode { return rt.mode }

// Recorder returns the active recorder (mode must be ModeRecord).
func (rt *Runtime) Recorder() *Recorder { return rt.rec }

// Replayer returns the active replayer (mode must be ModeReplay).
func (rt *Runtime) Replayer() *Replayer { return rt.rep }

// Epoch identifies the current record/replay incarnation; resources lazily
// reset their pruning clocks when they observe a new epoch.
func (rt *Runtime) Epoch() uint64 { return rt.epoch }

// RegisterResource allocates a resource id. Applications must create their
// resources (locks, condition variables, semaphores) in a deterministic
// order — normally at state-machine construction — so ids agree across
// replicas.
func (rt *Runtime) RegisterResource() uint32 {
	rt.resMu.Lock()
	defer rt.resMu.Unlock()
	rt.nextRes++
	id := rt.nextRes
	for uint32(len(rt.versions)) <= id {
		rt.versions = append(rt.versions, new(uint64))
	}
	return id
}

// Version returns the version counter slot for a resource. The caller
// serializes access through the resource's own metadata lock; distinct
// resources use distinct slots.
func (rt *Runtime) Version(id uint32) *uint64 { return rt.versions[id] }

// VersionsSnapshot copies all resource version counters; call only while
// every traced thread is quiescent (a checkpoint cut).
func (rt *Runtime) VersionsSnapshot() []uint64 {
	rt.resMu.Lock()
	defer rt.resMu.Unlock()
	out := make([]uint64, len(rt.versions))
	for i, p := range rt.versions {
		out[i] = *p
	}
	return out
}

// RestoreVersions installs version counters captured by VersionsSnapshot.
// Call before execution starts (checkpoint restore). A shorter snapshot
// (fewer resources existed then) leaves the remainder at zero.
func (rt *Runtime) RestoreVersions(v []uint64) {
	rt.resMu.Lock()
	defer rt.resMu.Unlock()
	for i, val := range v {
		if i < len(rt.versions) {
			*rt.versions[i] = val
		}
	}
}

// StartRecord switches the runtime into record mode starting from cut: the
// worker clocks resume from the cut, a fresh epoch resets all pruning
// clocks to the cut vector, and a new recorder collects deltas based at
// (cut, reqBase). Must be called only when all workers are quiescent.
func (rt *Runtime) StartRecord(cut trace.Cut, reqBase uint64) {
	n := len(rt.workers)
	rt.mode = ModeRecord
	rt.epoch++
	rt.baseVC = vclock.New(n)
	for t := 0; t < n; t++ {
		if t < len(cut) {
			rt.baseVC[t] = cut[t]
		}
	}
	for _, w := range rt.workers {
		w.clock = rt.baseVC[w.id]
		w.vc = vclock.New(n)
		w.vc[w.id] = w.clock // program order only; see baseVC's comment
		w.epoch = rt.epoch
	}
	rt.rec = NewRecorder(rt.Env, n, cut, reqBase)
	// The previous replayer (if any) is left in place: workers unblocking
	// from an aborted replay may still touch it on their way to the record
	// path.
}

// StartReplay switches the runtime into replay mode following tr, whose
// events strictly after base are executed (events inside base are assumed
// already reflected in application state, e.g. restored from a checkpoint).
// Must be called only when all workers are quiescent. A base beyond tr's
// frontier yields trace.ErrCutBeyondTrace, leaving the runtime's mode and
// previous replayer untouched.
func (rt *Runtime) StartReplay(tr *trace.Trace, base trace.Cut) error {
	rep, err := NewReplayer(rt.Env, tr, base)
	if err != nil {
		return err
	}
	rt.mode = ModeReplay
	rt.epoch++
	rt.baseVC = vclock.New(len(rt.workers))
	rt.rep = rep
	rt.rep.ob = rt.Obs
	rt.rep.skipEdgeWaits = rt.UnsafeSkipEdgeWaits
	return nil
}

// NoteElided counts an elided lock operation (rex_elided_ops_total).
func (rt *Runtime) NoteElided() {
	rt.elidedOps.Add(1)
	if rt.Obs != nil {
		rt.Obs.Elided.Add(1)
	}
}

// ElidedOps returns the number of lock operations elided from the trace.
func (rt *Runtime) ElidedOps() uint64 { return rt.elidedOps.Load() }

// Worker is one logical thread. All trace identity — event clocks, vector
// clocks for pruning, the execution mode override — lives here.
type Worker struct {
	rt          *Runtime
	id          int32
	clock       int32
	vc          vclock.VC
	epoch       uint64
	nativeDepth int
	fixedNative bool
	// class is the conflict class of the request currently executing on
	// this worker (0 = catch-all / no class). It is set by the dispatch
	// layer around each request in both record and replay mode — replay
	// derives it from the request's recorded class id, so both sides make
	// identical elision decisions.
	class uint32
}

// ID returns the logical thread id (-1 for native-only workers).
func (w *Worker) ID() int32 { return w.id }

// Runtime returns the owning runtime.
func (w *Worker) Runtime() *Runtime { return w.rt }

// Mode returns the worker's effective mode, honoring NativeExec scopes and
// fixed-native (read-pool) workers.
func (w *Worker) Mode() Mode {
	if w.fixedNative || w.nativeDepth > 0 {
		return ModeNative
	}
	return w.rt.mode
}

// SetClass installs the conflict class of the request about to execute on
// this worker (0 clears it). Only the dispatch layer calls it, at request
// boundaries.
func (w *Worker) SetClass(c uint32) { w.class = c }

// Class returns the conflict class of the currently executing request.
func (w *Worker) Class() uint32 { return w.class }

// ElideFor reports whether lock events on a resource owned by conflict
// class resClass should be elided for this worker: the resource is
// class-owned, the executing request is in that same class, and elision
// is enabled. Requests in the owning class are serialized by their
// deterministic class → thread assignment, so the elided events' ordering
// is implied by program order on both record and replay.
func (w *Worker) ElideFor(resClass uint32) bool {
	if resClass == 0 || w.class != resClass || w.rt.DisableConflictElision {
		return false
	}
	w.rt.NoteElided()
	return true
}

// EnterNative begins a NativeExec scope (§5.1): until the matching
// ExitNative, the worker's primitives run natively and record nothing.
func (w *Worker) EnterNative() { w.nativeDepth++ }

// ExitNative ends a NativeExec scope.
func (w *Worker) ExitNative() {
	if w.nativeDepth == 0 {
		panic("sched: ExitNative without EnterNative")
	}
	w.nativeDepth--
}

// Native runs fn inside a NativeExec scope.
func (w *Worker) Native(fn func()) {
	w.EnterNative()
	defer w.ExitNative()
	fn()
}

// refreshEpoch lazily resets the worker's pruning clock at epoch changes:
// it restarts covering only the worker's own prefix (see baseVC).
func (w *Worker) refreshEpoch() {
	if w.epoch != w.rt.epoch {
		w.clock = w.rt.baseVC[w.id]
		w.vc = vclock.New(len(w.rt.baseVC))
		w.vc[w.id] = w.clock
		w.epoch = w.rt.epoch
	}
}

// Clock returns the worker's current logical clock (the clock of its most
// recent event).
func (w *Worker) Clock() int32 { return w.clock }

// VC returns the worker's pruning vector clock. The caller must be the
// worker's own thread.
func (w *Worker) VC() vclock.VC {
	w.refreshEpoch()
	return w.vc
}

// Record appends an event with the given incoming edges to the worker's
// thread log and returns its id. Record mode only. The sources of all
// edges must already have been recorded (committed) by their threads; this
// keeps the trace acyclic and replayable.
func (w *Worker) Record(ev trace.Event, in []trace.EventID) trace.EventID {
	w.refreshEpoch()
	w.clock++
	id := trace.EventID{Thread: w.id, Clock: w.clock}
	w.vc.Observe(w.id, w.clock)
	w.rt.rec.Append(w.id, ev, in)
	return id
}

// PruneEdge reports whether an edge from src is redundant for this
// worker's next event, and if not, observes it in the pruning clock.
// A zero src (no predecessor) is always redundant.
func (w *Worker) PruneEdge(src trace.EventID) bool {
	if src == (trace.EventID{}) {
		return true
	}
	w.refreshEpoch()
	if !w.rt.DisablePruning && w.vc.Covers(src.Thread, src.Clock) {
		return true
	}
	w.vc.Observe(src.Thread, src.Clock)
	return false
}

// JoinVC folds a resource's release-time vector clock into the worker's
// pruning clock.
func (w *Worker) JoinVC(o vclock.VC) {
	if o == nil {
		return
	}
	w.refreshEpoch()
	w.vc.Join(o)
}
