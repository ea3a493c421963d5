package trace_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rex/internal/sched"
	"rex/internal/sim"
	"rex/internal/trace"
)

// model is a plain-slice reference for the chunked trace: every event and
// request ever appended stays in full-history slices, and garbage
// collection only moves the base marks.
type model struct {
	evs     [][]trace.Event     // evs[t][c-1] is event (t, c)
	ins     [][][]trace.EventID // its in-edge sources
	base    trace.Cut           // collected prefix per thread
	pruned  trace.Cut           // events at or below are unreadable, but still count as request boundaries
	reqs    []trace.Req
	reqBase uint64
}

func newModel(n int) *model {
	return &model{evs: make([][]trace.Event, n), ins: make([][][]trace.EventID, n), base: make(trace.Cut, n), pruned: make(trace.Cut, n)}
}

// floor is thread t's last unreadable clock: collected or pruned.
func (m *model) floor(t int) int32 { return max(m.base[t], m.pruned[t]) }

func (m *model) frontier() trace.Cut {
	c := make(trace.Cut, len(m.evs))
	for t := range m.evs {
		c[t] = int32(len(m.evs[t]))
	}
	return c
}

// truncate mirrors Trace.TruncateTo, reporting false where it must fail.
func (m *model) truncate(cut trace.Cut) bool {
	for t := range m.evs {
		if cut[t] < m.floor(t) || int(cut[t]) > len(m.evs[t]) {
			return false
		}
	}
	for t := range m.evs {
		m.evs[t], m.ins[t] = m.evs[t][:cut[t]], m.ins[t][:cut[t]]
	}
	return true
}

func (m *model) forget(cut trace.Cut, keep uint64) {
	for t := range m.evs {
		c := min(cut[t], int32(len(m.evs[t])))
		m.base[t] = max(m.base[t], c)
	}
	m.reqBase = max(m.reqBase, min(keep, uint64(len(m.reqs))))
}

func (m *model) consistentCut(base trace.Cut) trace.Cut {
	cut := m.frontier()
	for changed := true; changed; {
		changed = false
		for t := range m.evs {
			lo := max(m.floor(t), base[t])
		scan:
			for c := lo + 1; c <= cut[t]; c++ {
				for _, src := range m.ins[t][c-1] {
					if !cut.Covers(src) {
						cut[t] = c - 1
						changed = true
						break scan
					}
				}
			}
		}
	}
	return cut
}

func (m *model) isConsistent(cut trace.Cut) bool {
	for t := range m.evs {
		if int(cut[t]) > len(m.evs[t]) {
			return false
		}
		for c := m.floor(t) + 1; c <= cut[t]; c++ {
			for _, src := range m.ins[t][c-1] {
				if !cut.Covers(src) {
					return false
				}
			}
		}
	}
	return true
}

// live mirrors Trace.LiveReqs for a trace without a stash.
func (m *model) live(cut trace.Cut) []trace.IndexedReq {
	done := map[uint64]bool{}
	for t := range m.evs {
		for c := m.base[t] + 1; c <= min(cut[t], int32(len(m.evs[t]))); c++ {
			if ev := m.evs[t][c-1]; ev.Kind == trace.KindReqEnd {
				done[uint64(ev.Res)] = true
			}
		}
	}
	var live []trace.IndexedReq
	for idx := m.reqBase; idx < uint64(len(m.reqs)); idx++ {
		if !done[idx] {
			live = append(live, trace.IndexedReq{Idx: idx, Req: m.reqs[idx]})
		}
	}
	return live
}

// openRequests mirrors Trace.OpenRequests: request boundaries from the
// collected base on, begins opening and ends closing, thread by thread.
func (m *model) openRequests() int {
	open := map[uint32]bool{}
	for t := range m.evs {
		for _, ev := range m.evs[t][m.base[t]:] {
			switch ev.Kind {
			case trace.KindReqBegin:
				open[ev.Res] = true
			case trace.KindReqEnd:
				delete(open, ev.Res)
			}
		}
	}
	return len(open)
}

// heldIn is an In slice a replay worker took, with a copy of its contents
// at the time.
type heldIn struct {
	id   trace.EventID
	in   []trace.EventID
	want []trace.EventID
}

// storeRun drives one random interleaving of trace operations against the
// model.
type storeRun struct {
	t    *testing.T
	rng  *rand.Rand
	tr   *trace.Trace
	m    *model
	rep  *sched.Replayer
	held []heldIn
	lcc  trace.Cut // last consistent cut returned, a known-consistent base
}

// clock picks a clock in [lo, hi], half the time on or next to a chunk
// boundary when one lies in range.
func (s *storeRun) clock(lo, hi int32) int32 {
	if hi <= lo {
		return lo
	}
	if s.rng.Intn(2) == 0 {
		k := lo/trace.ChunkLen + int32(s.rng.Intn(int(hi/trace.ChunkLen-lo/trace.ChunkLen)+1))
		if c := k*trace.ChunkLen + int32(s.rng.Intn(3)-1); c >= lo && c <= hi {
			return c
		}
	}
	return lo + int32(s.rng.Intn(int(hi-lo)+1))
}

// cutBetween picks a cut between the collected base and the frontier.
func (s *storeRun) cutBetween() trace.Cut {
	f := s.m.frontier()
	c := make(trace.Cut, len(f))
	for t := range c {
		c[t] = s.clock(s.m.base[t], f[t])
	}
	return c
}

// cutWithin picks a cut between the readable floor and the frontier, at
// most span events behind the frontier on each thread: a rebase discards
// a recent residue, not the whole trace.
func (s *storeRun) cutWithin(span int32) trace.Cut {
	f := s.m.frontier()
	c := make(trace.Cut, len(f))
	for t := range c {
		c[t] = s.clock(max(s.m.floor(t), f[t]-span), f[t])
	}
	return c
}

// randomDelta builds the next committed delta on top of the model (after
// rebase, when given): events with edges to random clocks, some of them
// not yet present, and requests that req-end events refer to.
func (s *storeRun) randomDelta(rebase trace.Cut) *trace.Delta {
	n := len(s.m.evs)
	base := s.m.frontier()
	if rebase != nil {
		base = rebase.Clone()
	}
	d := &trace.Delta{Rebase: rebase, Base: base, ReqBase: uint64(len(s.m.reqs)), Threads: make([]trace.ThreadLog, n)}
	for i := s.rng.Intn(4); i > 0; i-- {
		d.Reqs = append(d.Reqs, trace.Req{Client: uint64(s.rng.Intn(9)), Seq: uint64(s.rng.Intn(1000)), Body: []byte(fmt.Sprint(s.rng.Int()))})
	}
	reqEnd := int(d.ReqBase) + len(d.Reqs)
	for t := 0; t < n; t++ {
		for i := s.rng.Intn(120); i > 0; i-- {
			ev := trace.Event{Kind: trace.KindLockAcq, Res: uint32(s.rng.Intn(5)), Arg: s.rng.Uint64()}
			if reqEnd > 0 {
				switch s.rng.Intn(6) {
				case 0, 1:
					ev = trace.Event{Kind: trace.KindReqEnd, Res: uint32(s.rng.Intn(reqEnd))}
				case 2:
					ev = trace.Event{Kind: trace.KindReqBegin, Res: uint32(s.rng.Intn(reqEnd))}
				}
			}
			var in []trace.EventID
			for j := s.rng.Intn(3); j > 0; j-- {
				src := int32(s.rng.Intn(n))
				in = append(in, trace.EventID{Thread: src, Clock: 1 + int32(s.rng.Intn(int(base[src])+3))})
			}
			d.Threads[t].Append(ev, in)
		}
	}
	return d
}

// apply applies a random delta, reporting whether it rebased.
func (s *storeRun) apply() bool {
	var rebase trace.Cut
	if s.rng.Intn(4) == 0 {
		rebase = s.cutWithin(2 * trace.ChunkLen)
	}
	d := s.randomDelta(rebase)
	if err := s.tr.Apply(d); err != nil {
		s.t.Fatalf("Apply: %v", err)
	}
	if rebase != nil {
		s.m.truncate(rebase)
		s.dropHeldBeyond(rebase)
	}
	for t := range d.Threads {
		l := &d.Threads[t]
		for i, ev := range l.Events {
			s.m.evs[t] = append(s.m.evs[t], ev)
			s.m.ins[t] = append(s.m.ins[t], slices.Clone(l.In(i)))
		}
	}
	s.m.reqs = append(s.m.reqs, d.Reqs...)
	return rebase != nil
}

// applyBadRebase applies a delta whose rebase cut lies outside the
// retained window; the trace must refuse it untouched.
func (s *storeRun) applyBadRebase() {
	f := s.m.frontier()
	bad := f.Clone()
	t := s.rng.Intn(len(bad))
	if s.m.base[t] > 0 && s.rng.Intn(2) == 0 {
		bad[t] = s.m.base[t] - 1
	} else {
		bad[t] = f[t] + 1
	}
	d := &trace.Delta{Rebase: bad, Base: bad, ReqBase: uint64(len(s.m.reqs)), Threads: make([]trace.ThreadLog, len(f))}
	if err := s.tr.Apply(d); !errors.Is(err, trace.ErrCutBeyondTrace) {
		s.t.Fatalf("Apply(rebase %v, frontier %v, base %v) err = %v, want ErrCutBeyondTrace", bad, f, s.m.base, err)
	}
}

func (s *storeRun) truncate() {
	cut := s.cutWithin(2 * trace.ChunkLen)
	if err := s.tr.TruncateTo(cut); err != nil {
		s.t.Fatalf("TruncateTo(%v): %v", cut, err)
	}
	s.m.truncate(cut)
	s.dropHeldBeyond(cut)
}

func (s *storeRun) forget() {
	// Mostly keep three chunks' worth behind the frontier, as checkpoints
	// trail the commit stream; sometimes collect up to the frontier.
	cut := s.cutBetween()
	if s.rng.Intn(4) > 0 {
		f := s.m.frontier()
		for t := range cut {
			cut[t] = s.clock(s.m.base[t], max(s.m.base[t], f[t]-3*trace.ChunkLen))
		}
	}
	keep := s.m.reqBase + uint64(s.rng.Intn(len(s.m.reqs)-int(s.m.reqBase)+2))
	if s.rng.Intn(2) == 0 {
		keep = s.tr.LiveLowWater(cut)
	}
	s.tr.Forget(cut, keep)
	s.m.forget(cut, keep)
}

// prune collects a thread's whole chunks up to a clock, as a replay worker
// does behind its executed frontier. Chunks are aligned to clock numbers,
// so what becomes unreadable ends at a multiple of the chunk length.
func (s *storeRun) prune() {
	f := s.m.frontier()
	t := s.rng.Intn(len(f))
	c := s.clock(s.m.floor(t), f[t])
	s.tr.PruneTo(t, c)
	if aligned := c / trace.ChunkLen * trace.ChunkLen; aligned > s.m.pruned[t] {
		s.m.pruned[t] = aligned
	}
}

// hold takes In slices of a few retained events, as replay workers do.
func (s *storeRun) hold() {
	f := s.m.frontier()
	for i := 0; i < 4; i++ {
		t := s.rng.Intn(len(f))
		if f[t] == s.m.floor(t) {
			continue
		}
		id := trace.EventID{Thread: int32(t), Clock: s.clock(s.m.floor(t)+1, f[t])}
		in := s.tr.In(id)
		s.held = append(s.held, heldIn{id: id, in: in, want: slices.Clone(in)})
	}
}

// dropHeldBeyond forgets held slices of events a truncation discarded:
// only those may be overwritten.
func (s *storeRun) dropHeldBeyond(cut trace.Cut) {
	kept := s.held[:0]
	for _, h := range s.held {
		if cut.Covers(h.id) {
			kept = append(kept, h)
		}
	}
	s.held = kept
}

// check compares every observable of the trace with the model.
func (s *storeRun) check(step int) {
	t, tr, m := s.t, s.tr, s.m
	f := m.frontier()
	if got := tr.Cut(); !got.Equal(f) {
		t.Fatalf("step %d: Cut = %v, want %v", step, got, f)
	}
	events, edges := 0, 0
	for th := range m.evs {
		var seen []trace.Event
		tr.EachEvent(th, 0, f[th], func(ev trace.Event) { seen = append(seen, ev) })
		if want := m.evs[th][m.floor(th):]; !slices.Equal(seen, want) {
			t.Fatalf("step %d: thread %d events differ from the model (%d vs %d)", step, th, len(seen), len(want))
		}
		for c := m.floor(th) + 1; c <= f[th]; c++ {
			id := trace.EventID{Thread: int32(th), Clock: c}
			if got := tr.Event(id); got != m.evs[th][c-1] {
				t.Fatalf("step %d: Event%v = %+v, want %+v", step, id, got, m.evs[th][c-1])
			}
			if got := tr.In(id); !slices.Equal(got, m.ins[th][c-1]) {
				t.Fatalf("step %d: In%v = %v, want %v", step, id, got, m.ins[th][c-1])
			}
			edges += len(m.ins[th][c-1])
		}
		events += int(f[th] - m.floor(th))
	}
	st := tr.Stats()
	if st.Events != events || st.Edges != edges || st.Reqs != len(m.reqs)-int(m.reqBase) {
		t.Fatalf("step %d: Stats = %+v, want %d events %d edges %d reqs", step, st, events, edges, len(m.reqs)-int(m.reqBase))
	}
	if got, want := tr.OpenRequests(), m.openRequests(); got != want {
		t.Fatalf("step %d: OpenRequests = %d, want %d", step, got, want)
	}
	if got := tr.ReqEnd(); got != uint64(len(m.reqs)) {
		t.Fatalf("step %d: ReqEnd = %d, want %d", step, got, len(m.reqs))
	}
	for idx := uint64(0); idx < uint64(len(m.reqs))+2; idx++ {
		r, ok := tr.Req(idx)
		wantOK := idx >= m.reqBase && idx < uint64(len(m.reqs))
		if ok != wantOK || ok && (r.Client != m.reqs[idx].Client || string(r.Body) != string(m.reqs[idx].Body)) {
			t.Fatalf("step %d: Req(%d) = %+v %v, want present=%v", step, idx, r, ok, wantOK)
		}
	}
	base := m.base.Clone()
	for th := range base {
		base[th] = m.floor(th)
	}
	if s.lcc != nil && s.lcc.AtLeast(base) && m.isConsistent(s.lcc) {
		base = s.lcc
	}
	cc, err := tr.ConsistentCut(base)
	if err != nil {
		t.Fatalf("step %d: ConsistentCut(%v): %v", step, base, err)
	}
	if want := m.consistentCut(base); !cc.Equal(want) {
		t.Fatalf("step %d: ConsistentCut(%v) = %v, want %v", step, base, cc, want)
	}
	s.lcc = cc
	for i := 0; i < 4; i++ {
		cut := s.cutBetween()
		if got, want := tr.IsConsistent(cut), m.isConsistent(cut); got != want {
			t.Fatalf("step %d: IsConsistent(%v) = %v, want %v", step, cut, got, want)
		}
		want := m.live(cut)
		low := uint64(len(m.reqs))
		if len(want) > 0 {
			low = want[0].Idx
		}
		if got := tr.LiveLowWater(cut); got != low {
			t.Fatalf("step %d: LiveLowWater(%v) = %d, want %d", step, cut, got, low)
		}
		got := s.rep.LiveReqs(cut)
		if len(got) != len(want) {
			t.Fatalf("step %d: Replayer.LiveReqs(%v) has %d requests, want %d", step, cut, len(got), len(want))
		}
		for j := range got {
			if got[j].Idx != want[j].Idx || got[j].Req.Seq != want[j].Req.Seq || string(got[j].Req.Body) != string(want[j].Req.Body) {
				t.Fatalf("step %d: Replayer.LiveReqs(%v)[%d] = %+v, want %+v", step, cut, j, got[j], want[j])
			}
		}
	}
	for _, h := range s.held {
		if !slices.Equal(h.in, h.want) {
			t.Fatalf("step %d: In%v held by a worker changed: %v, was %v", step, h.id, h.in, h.want)
		}
	}
}

// TestQuickChunkedStoreMatchesModel runs random interleavings of Apply
// (with and without rebase), TruncateTo, Forget, PruneTo, ConsistentCut,
// IsConsistent, LiveLowWater, OpenRequests and Replayer.LiveReqs against
// a plain-slice model; a pruned event stays a request boundary until
// Forget collects it. Threads grow across several chunks and cuts land on and next to
// chunk boundaries. In slices taken as a replay worker would must never
// change unless a truncation discarded their event. The last, long run
// checks that this holds while dropped chunks are reused.
func TestQuickChunkedStoreMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		st := runStore(t, seed, opsFrom(seed, 300))
		if st.maxChunks < 3 {
			t.Fatalf("seed %d: no thread's retained events ever spanned 3 chunks (max %d)", seed, st.maxChunks)
		}
	}
	st := runStore(t, 7, opsFrom(7, 3000))
	if st.reused < 20 || st.truncations < 100 {
		t.Fatalf("long run reused %d spare chunks across %d truncations, want at least 20 and 100", st.reused, st.truncations)
	}
}

// FuzzChunkedStore drives the chunked store with fuzzed operation
// sequences (apply, rebase, truncate, forget, prune, hold) against the
// model, as TestQuickChunkedStoreMatchesModel does with random ones.
func FuzzChunkedStore(f *testing.F) {
	f.Add(int64(1), []byte{0, 0, 0, 0, 0, 0, 11, 13, 17, 18, 0, 0, 11, 13})
	f.Add(int64(2), opsFrom(2, 64))
	f.Add(int64(3), []byte{0, 18, 0, 17, 11, 0, 18, 16, 13, 0, 0, 0, 17, 17, 11})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 64 {
			ops = ops[:64] // keeps an execution, which checks every step, in milliseconds
		}
		runStore(t, seed, ops)
	})
}

// opsFrom draws n operation codes for runStore from seed.
func opsFrom(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(-seed))
	ops := make([]byte, n)
	for i := range ops {
		ops[i] = byte(rng.Intn(20))
	}
	return ops
}

// storeStats is what one runStore saw.
type storeStats struct {
	maxChunks   int // most chunks one thread's retained events spanned
	reused      int // applies that took a chunk from a spare list
	truncations int // successful TruncateTo calls and rebasing applies
}

// runStore checks the store against the model after each operation in
// ops, op%20 choosing it: apply (0–10), truncate (11–12), forget (13–15),
// a refused rebase (16), prune (17) or hold (18–19). Parameters come from
// seed.
func runStore(t *testing.T, seed int64, ops []byte) storeStats {
	var st storeStats
	e := sim.New(1)
	e.Run(func() {
		const threads = 3
		s := &storeRun{t: t, rng: rand.New(rand.NewSource(seed)), tr: trace.New(threads), m: newModel(threads)}
		rep, err := sched.NewReplayer(e, s.tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.rep = rep
		for step, op := range ops {
			switch r := op % 20; {
			case r < 11:
				spare := s.tr.SpareChunks()
				if s.apply() {
					st.truncations++
				}
				if s.tr.SpareChunks() < spare {
					st.reused++
				}
			case r < 13:
				s.truncate()
				st.truncations++
			case r < 16:
				s.forget()
			case r < 17:
				s.applyBadRebase()
			case r < 18:
				s.prune()
			default:
				s.hold()
			}
			s.check(step)
			for th, c := range s.m.frontier() {
				if b := s.m.base[th]; c > b {
					st.maxChunks = max(st.maxChunks, int((c-1)/trace.ChunkLen-b/trace.ChunkLen)+1)
				}
			}
		}
	})
	return st
}
