// Package sim provides a deterministic simulated implementation of env.Env:
// virtual time, a configurable number of simulated CPU cores, and
// cooperatively scheduled tasks.
//
// Exactly one task runs at any instant; control is handed from task to task
// through per-task baton channels, and virtual time advances only when every
// task is blocked (sleeping, computing, or waiting on a primitive). The
// scheduler is strictly FIFO and timers tie-break by creation order, so a
// simulation with a fixed workload is bit-for-bit reproducible. This is the
// substitute for the paper's 12-core testbed: Compute(d) occupies one of K
// virtual cores for d of virtual time, so thread-scaling behaviour emerges
// from the same synchronization structure the paper measures, independent of
// the physical core count of the machine running the simulation.
package sim

import (
	"container/heap"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"rex/internal/env"
)

// Env is a deterministic simulated environment. Create one with New, spawn
// tasks with Go, and drive the simulation with Run.
type Env struct {
	mu sync.Mutex
	// machines are independent CPU pools: one per simulated server. Tasks
	// inherit their machine from their spawner, so a replica started on
	// machine i computes on machine i's cores — matching the paper's
	// one-server-per-replica testbed.
	machines  []*coreGroup
	now       int64 // virtual nanoseconds
	readyQ    []*task
	timers    timerHeap
	timerSeq  uint64
	taskSeq   int
	tasks     map[int]*task
	stopped   bool
	cur       *task // the task currently holding the baton
	mainDone  chan struct{}
	doneOnce  sync.Once
	panicVal  any
	panicText string
}

type cpuReq struct {
	t *task
	d int64
}

// coreGroup is one machine's CPU pool: FCFS allocation of whole compute
// slices onto `cores` cores.
type coreGroup struct {
	cores int
	busy  int
	q     []cpuReq
}

type task struct {
	id      int
	name    string
	fn      func()
	token   chan struct{}
	done    chan struct{}
	state   string
	machine int
	killed  bool
	exited  bool
}

// killedSignal unwinds a task that the environment is tearing down.
type killedSignal struct{}

// New returns a simulated environment whose machine 0 has the given
// number of CPU cores. Add more machines with AddMachine.
func New(cores int) *Env {
	if cores < 1 {
		cores = 1
	}
	return &Env{
		machines: []*coreGroup{{cores: cores}},
		tasks:    make(map[int]*task),
	}
}

// Cores implements env.Env: the core count of machine 0.
func (s *Env) Cores() int { return s.machines[0].cores }

// AddMachine adds an independent CPU pool (a simulated server) and returns
// its id. Tasks spawned via GoOn — and, transitively, everything those
// tasks spawn — compute on that machine.
func (s *Env) AddMachine(cores int) int {
	if cores < 1 {
		cores = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.machines = append(s.machines, &coreGroup{cores: cores})
	return len(s.machines) - 1
}

// GoOn spawns a task pinned to the given machine.
func (s *Env) GoOn(machine int, name string, fn func()) {
	s.mu.Lock()
	if machine < 0 || machine >= len(s.machines) {
		s.mu.Unlock()
		panic("sim: GoOn to unknown machine")
	}
	t := s.spawnLocked(name, fn, false)
	t.machine = machine
	s.mu.Unlock()
}

// Now implements env.Env.
func (s *Env) Now() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return time.Duration(s.now)
}

// Run executes main as the root task and drives the simulation until main
// returns, then tears down every remaining task. If any task panicked, Run
// re-panics with that value.
func (s *Env) Run(main func()) {
	s.mainDone = make(chan struct{})
	s.spawn("main", main, true)
	s.mu.Lock()
	first := s.pickNextLocked()
	s.mu.Unlock()
	if first != nil {
		first.token <- struct{}{}
	}
	<-s.mainDone
	s.killAll()
	if s.panicVal != nil {
		panic(fmt.Sprintf("sim: task panic: %v\n%s", s.panicVal, s.panicText))
	}
}

// Go implements env.Env.
func (s *Env) Go(name string, fn func()) {
	s.spawn(name, fn, false)
}

func (s *Env) spawn(name string, fn func(), isMain bool) *task {
	s.mu.Lock()
	t := s.spawnLocked(name, fn, isMain)
	s.mu.Unlock()
	return t
}

func (s *Env) spawnLocked(name string, fn func(), isMain bool) *task {
	s.taskSeq++
	t := &task{
		id:    s.taskSeq,
		name:  name,
		fn:    fn,
		token: make(chan struct{}, 1),
		done:  make(chan struct{}),
		state: "ready",
	}
	if s.cur != nil {
		t.machine = s.cur.machine // inherit the spawner's machine
	}
	s.tasks[t.id] = t
	s.readyQ = append(s.readyQ, t)
	go s.taskMain(t, isMain)
	return t
}

func (s *Env) taskMain(t *task, isMain bool) {
	defer close(t.done)
	<-t.token
	if t.killed {
		s.finishTask(t, isMain, nil, nil)
		return
	}
	s.mu.Lock()
	s.cur = t
	s.mu.Unlock()
	var pv any
	var stack []byte
	// finishTask runs from a defer so the baton is handed on even when the
	// task terminates via runtime.Goexit — e.g. testing.T.Fatal inside a
	// simulated task — which unwinds the goroutine without returning.
	defer func() {
		s.finishTask(t, isMain, pv, stack)
	}()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedSignal); ok {
				return
			}
			pv = r
			stack = debug.Stack()
		}
	}()
	t.fn()
}

// finishTask removes t from the scheduler and, depending on why the task is
// finishing, either hands the baton onward or halts the simulation.
func (s *Env) finishTask(t *task, isMain bool, pv any, stack []byte) {
	s.mu.Lock()
	t.exited = true
	t.state = "exited"
	delete(s.tasks, t.id)
	if pv != nil {
		// A task crashed: halt the simulation and surface the panic.
		s.stopped = true
		if s.panicVal == nil {
			s.panicVal = pv
			s.panicText = string(stack)
		}
		s.mu.Unlock()
		s.doneOnce.Do(func() { close(s.mainDone) })
		return
	}
	if isMain || t.killed {
		s.stopped = true
		s.mu.Unlock()
		if isMain {
			s.doneOnce.Do(func() { close(s.mainDone) })
		}
		return
	}
	// Normal task exit: pass the baton to the next runnable task.
	next := s.pickNextLocked()
	s.mu.Unlock()
	if next != nil {
		next.token <- struct{}{}
	}
}

// block parks the current task t (which the caller has already registered on
// some wait list), hands the baton to the next runnable task, and returns
// when t is woken. Called with s.mu held; returns with s.mu released.
func (s *Env) blockLocked(t *task, state string) {
	t.state = state
	next := s.pickNextLocked()
	s.mu.Unlock()
	if next != nil {
		next.token <- struct{}{}
	}
	<-t.token
	if t.killed {
		panic(killedSignal{})
	}
	s.mu.Lock()
	s.cur = t
	t.state = "running"
	s.mu.Unlock()
}

// readyLocked marks t runnable. Called with s.mu held.
func (s *Env) readyLocked(t *task) {
	if t.state == "ready" || t.state == "running" {
		// Scheduler-state corruption (a double ready would duplicate the
		// baton). This fires with s.mu held, so a panic would deadlock
		// the unwinding task's epilogue — abort instead.
		fmt.Fprintf(os.Stderr, "sim: FATAL: task %d %q readied while %s\n%s\n",
			t.id, t.name, t.state, s.dumpLocked())
		os.Exit(2)
	}
	t.state = "ready"
	s.readyQ = append(s.readyQ, t)
}

// pickNextLocked returns the next runnable task, advancing virtual time and
// firing timers as needed. Returns nil if the simulation has stopped or no
// task can ever run again. Called with s.mu held.
func (s *Env) pickNextLocked() *task {
	for {
		if s.stopped {
			return nil
		}
		if len(s.readyQ) > 0 {
			t := s.readyQ[0]
			s.readyQ[0] = nil
			s.readyQ = s.readyQ[1:]
			t.state = "running"
			return t
		}
		if s.timers.Len() == 0 {
			if len(s.tasks) == 0 {
				return nil
			}
			dump := s.dumpLocked()
			// Release the scheduler lock before panicking so the task's
			// recovery path (finishTask) can reacquire it.
			s.mu.Unlock()
			panic("sim: deadlock — all tasks blocked with no pending timers\n" + dump)
		}
		tm := heap.Pop(&s.timers).(*timer)
		if tm.stopped {
			continue
		}
		if tm.when > s.now {
			s.now = tm.when
		}
		tm.fn()
	}
}

// dumpLocked renders the task table for deadlock diagnostics.
func (s *Env) dumpLocked() string {
	ids := make([]int, 0, len(s.tasks))
	for id := range s.tasks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := fmt.Sprintf("sim time %v, %d tasks:\n", time.Duration(s.now), len(ids))
	for _, id := range ids {
		t := s.tasks[id]
		out += fmt.Sprintf("  task %d %q: %s\n", t.id, t.name, t.state)
	}
	return out
}

// killAll tears down every remaining task, one at a time, until none remain.
func (s *Env) killAll() {
	for {
		s.mu.Lock()
		var victims []*task
		for _, t := range s.tasks {
			if !t.exited {
				victims = append(victims, t)
			}
		}
		s.mu.Unlock()
		if len(victims) == 0 {
			return
		}
		sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
		for _, t := range victims {
			s.mu.Lock()
			t.killed = true
			s.mu.Unlock()
			t.token <- struct{}{}
			<-t.done
		}
	}
}

// Sleep implements env.Env.
func (s *Env) Sleep(d time.Duration) {
	t := s.current()
	s.mu.Lock()
	if d <= 0 {
		// Yield: go to the back of the ready queue. (The state change
		// distinguishes this legitimate self-ready from a double-ready
		// bug, which readyLocked asserts against.)
		t.state = "yielding"
		s.readyLocked(t)
		s.blockLocked(t, "yield")
		return
	}
	s.addTimerLocked(s.now+int64(d), func() { s.readyLocked(t) })
	s.blockLocked(t, "sleep")
}

// Compute implements env.Env: occupy one of the calling task's machine's
// cores for d of virtual time, queueing FCFS when all cores are busy.
func (s *Env) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	t := s.current()
	s.mu.Lock()
	g := s.machines[t.machine]
	if g.busy < g.cores {
		g.busy++
		s.startComputeLocked(g, t, int64(d))
	} else {
		g.q = append(g.q, cpuReq{t: t, d: int64(d)})
	}
	s.blockLocked(t, "compute")
}

// startComputeLocked schedules the completion of t's compute slice; the core
// is considered busy until then. Called with s.mu held.
func (s *Env) startComputeLocked(g *coreGroup, t *task, d int64) {
	s.addTimerLocked(s.now+d, func() {
		s.readyLocked(t)
		if len(g.q) > 0 {
			next := g.q[0]
			g.q = g.q[1:]
			s.startComputeLocked(g, next.t, next.d)
		} else {
			g.busy--
		}
	})
}

// AfterFunc implements env.Env. fn runs on a fresh task at the deadline.
func (s *Env) AfterFunc(d time.Duration, fn func()) env.Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d < 0 {
		d = 0
	}
	tm := s.addTimerLocked(s.now+int64(d), nil)
	tm.fn = func() {
		if !tm.stopped {
			s.spawnLocked("timer", fn, false)
		}
	}
	return tm
}

func (s *Env) addTimerLocked(when int64, fn func()) *timer {
	s.timerSeq++
	tm := &timer{when: when, seq: s.timerSeq, fn: fn, env: s}
	heap.Push(&s.timers, tm)
	return tm
}

// NewMutex implements env.Env.
func (s *Env) NewMutex() env.Mutex { return &simMutex{s: s} }

// NewCond implements env.Env.
func (s *Env) NewCond(m env.Mutex) env.Cond {
	return &simCond{s: s, m: m.(*simMutex)}
}

// NewChan implements env.Env.
func (s *Env) NewChan(capacity int) env.Chan { return env.NewChanFor(s, capacity) }

type timer struct {
	when    int64
	seq     uint64
	fn      func()
	env     *Env
	stopped bool
}

// Stop implements env.Timer.
func (tm *timer) Stop() bool {
	tm.env.mu.Lock()
	defer tm.env.mu.Unlock()
	was := !tm.stopped
	tm.stopped = true
	return was
}

type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].when != h[j].when {
		return h[i].when < h[j].when
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() (popped any) {
	old := *h
	n := len(old)
	popped = old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return
}
