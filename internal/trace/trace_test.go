package trace

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// mustCC computes ConsistentCut for a base known to be inside the trace.
func mustCC(t *testing.T, tr *Trace, base Cut) Cut {
	t.Helper()
	cc, err := tr.ConsistentCut(base)
	if err != nil {
		t.Fatalf("ConsistentCut(%v): %v", base, err)
	}
	return cc
}

// buildFig2 builds the paper's Figure 2 trace: two threads sharing lock L.
// Thread 0: req-begin(1), lock-acq(2), lock-rel(3), lock-acq(4)
// Thread 1: req-begin(1), lock-acq(2), lock-rel(3)
// Edges: (0,3) -> (1,2) and (1,3) -> (0,4).
func buildFig2() *Trace {
	tr := New(2)
	appendEvent(tr, 0, Event{Kind: KindReqBegin, Res: 0}, nil)
	appendEvent(tr, 0, Event{Kind: KindLockAcq, Res: 1, Arg: 1}, nil)
	appendEvent(tr, 0, Event{Kind: KindLockRel, Res: 1, Arg: 2}, nil)
	appendEvent(tr, 1, Event{Kind: KindReqBegin, Res: 1}, nil)
	appendEvent(tr, 1, Event{Kind: KindLockAcq, Res: 1, Arg: 3}, []EventID{{0, 3}})
	appendEvent(tr, 1, Event{Kind: KindLockRel, Res: 1, Arg: 4}, nil)
	appendEvent(tr, 0, Event{Kind: KindLockAcq, Res: 1, Arg: 5}, []EventID{{1, 3}})
	appendReqs(tr, Req{Client: 1, Seq: 1}, Req{Client: 2, Seq: 1})
	return tr
}

// appendEvent appends one event to thread t the way Apply does and returns
// its id.
func appendEvent(tr *Trace, t int32, ev Event, in []EventID) EventID {
	tr.threads[t].push(ev, in)
	return EventID{Thread: t, Clock: tr.threads[t].end}
}

// appendReqs appends requests to the table the way Apply does.
func appendReqs(tr *Trace, reqs ...Req) {
	for _, r := range reqs {
		tr.reqs.push(r)
	}
}

// asDelta returns the whole of a trace that has never been garbage
// collected as one delta based at the empty cut.
func asDelta(tr *Trace) *Delta {
	d := &Delta{Base: make(Cut, tr.NumThreads()), Threads: make([]ThreadLog, tr.NumThreads())}
	for t, end := range tr.Cut() {
		for c := int32(1); c <= end; c++ {
			id := EventID{Thread: int32(t), Clock: c}
			d.Threads[t].Append(tr.Event(id), tr.In(id))
		}
	}
	for idx := uint64(0); idx < tr.ReqEnd(); idx++ {
		r, _ := tr.Req(idx)
		d.Reqs = append(d.Reqs, r)
	}
	return d
}

func TestCutBasics(t *testing.T) {
	tr := buildFig2()
	cut := tr.Cut()
	if cut[0] != 4 || cut[1] != 3 {
		t.Fatalf("Cut = %v, want [4 3]", cut)
	}
	if !cut.Covers(EventID{0, 4}) || cut.Covers(EventID{0, 5}) {
		t.Error("Covers wrong")
	}
	if !cut.AtLeast(Cut{4, 3}) || cut.AtLeast(Cut{5, 0}) {
		t.Error("AtLeast wrong")
	}
}

func TestConsistentCutFig2(t *testing.T) {
	tr := buildFig2()
	// The full trace is consistent: every edge source is present.
	cc := mustCC(t, tr, nil)
	if !cc.Equal(Cut{4, 3}) {
		t.Fatalf("ConsistentCut = %v, want [4 3]", cc)
	}
	// c1 from the paper is consistent, c2 ((0,4) in but (1,3) out) is not.
	if !tr.IsConsistent(Cut{3, 2}) {
		t.Error("paper's c1 [3 2] should be consistent")
	}
	if tr.IsConsistent(Cut{4, 2}) {
		t.Error("paper's c2 [4 2] should be inconsistent")
	}
}

func TestConsistentCutWithMissingSource(t *testing.T) {
	// Event (1,2) depends on (0,3), but thread 0 only logged 2 events —
	// the async collector raced (§3.2). The consistent cut must exclude
	// (1,2) and everything after it on thread 1.
	tr := New(2)
	appendEvent(tr, 0, Event{Kind: KindLockAcq, Res: 1}, nil)
	appendEvent(tr, 0, Event{Kind: KindLockRel, Res: 1}, nil)
	appendEvent(tr, 1, Event{Kind: KindLockAcq, Res: 1}, []EventID{{0, 3}})
	appendEvent(tr, 1, Event{Kind: KindLockRel, Res: 1}, nil)
	cc := mustCC(t, tr, nil)
	if !cc.Equal(Cut{2, 0}) {
		t.Fatalf("ConsistentCut = %v, want [2 0]", cc)
	}
}

func TestConsistentCutCascade(t *testing.T) {
	// Removing an event must cascade through later dependents on other
	// threads: (0,2) depends on missing (2,1); (1,1) depends on (0,2).
	tr := New(3)
	appendEvent(tr, 0, Event{Kind: KindLockAcq, Res: 1}, nil)
	appendEvent(tr, 0, Event{Kind: KindLockAcq, Res: 2}, []EventID{{2, 1}})
	appendEvent(tr, 1, Event{Kind: KindLockAcq, Res: 3}, []EventID{{0, 2}})
	cc := mustCC(t, tr, nil)
	if !cc.Equal(Cut{1, 0, 0}) {
		t.Fatalf("ConsistentCut = %v, want [1 0 0]", cc)
	}
}

func TestConsistentCutIncrementalMatchesFull(t *testing.T) {
	tr := buildFig2()
	base := Cut{3, 1} // consistent prefix
	if !tr.IsConsistent(base) {
		t.Fatal("base not consistent")
	}
	inc := mustCC(t, tr, base)
	full := mustCC(t, tr, nil)
	if !inc.Equal(full) {
		t.Errorf("incremental %v != full %v", inc, full)
	}
}

func TestTruncateTo(t *testing.T) {
	tr := buildFig2()
	tr.Marks = []Mark{{ID: 1, Cut: Cut{3, 2}}, {ID: 2, Cut: Cut{4, 3}}}
	if err := tr.TruncateTo(Cut{3, 2}); err != nil {
		t.Fatalf("TruncateTo: %v", err)
	}
	if got := tr.Cut(); !got.Equal(Cut{3, 2}) {
		t.Fatalf("after truncate Cut = %v", got)
	}
	if len(tr.Marks) != 1 || tr.Marks[0].ID != 1 {
		t.Errorf("marks after truncate = %v, want only mark 1", tr.Marks)
	}
	// Both requests still referenced by surviving req-begin events.
	if tr.Stats().Reqs != 2 {
		t.Errorf("reqs after truncate = %d, want 2", tr.Stats().Reqs)
	}
	if !tr.IsConsistent(tr.Cut()) {
		t.Error("truncated trace inconsistent")
	}
}

func TestApplyDelta(t *testing.T) {
	tr := New(2)
	d1 := &Delta{
		Base:    Cut{0, 0},
		Threads: make([]ThreadLog, 2),
	}
	d1.Threads[0].Append(Event{Kind: KindReqBegin, Res: 0}, nil)
	d1.Threads[0].Append(Event{Kind: KindLockAcq, Res: 1}, nil)
	d1.Reqs = []Req{{Client: 1, Seq: 1, Body: []byte("a")}}
	if err := tr.Apply(d1); err != nil {
		t.Fatalf("Apply d1: %v", err)
	}
	d2 := &Delta{
		Base:    Cut{2, 0},
		ReqBase: 1,
		Threads: make([]ThreadLog, 2),
	}
	d2.Threads[1].Append(Event{Kind: KindLockAcq, Res: 1}, []EventID{{0, 2}})
	if err := tr.Apply(d2); err != nil {
		t.Fatalf("Apply d2: %v", err)
	}
	if tr.EventCount() != 3 || tr.EdgeCount() != 1 || tr.Stats().Reqs != 1 {
		t.Errorf("trace after applies: events=%d edges=%d reqs=%d",
			tr.EventCount(), tr.EdgeCount(), tr.Stats().Reqs)
	}
	// Re-applying d2 must fail the base check.
	if err := tr.Apply(d2); err == nil {
		t.Error("re-apply of delta succeeded, want base mismatch")
	}
}

func TestApplyRebase(t *testing.T) {
	tr := buildFig2()
	d := &Delta{
		Rebase:  Cut{3, 2},
		Base:    Cut{3, 2},
		ReqBase: 2,
		Threads: make([]ThreadLog, 2),
	}
	d.Threads[1].Append(Event{Kind: KindLockRel, Res: 1}, nil)
	if err := tr.Apply(d); err != nil {
		t.Fatalf("Apply rebase: %v", err)
	}
	if got := tr.Cut(); !got.Equal(Cut{3, 3}) {
		t.Errorf("Cut after rebase-apply = %v, want [3 3]", got)
	}
}

func TestDeltaEncodeDecodeRoundTrip(t *testing.T) {
	d := &Delta{
		Rebase:  Cut{1, 2},
		Base:    Cut{1, 2},
		ReqBase: 7,
		Threads: make([]ThreadLog, 2),
		Reqs:    []Req{{Client: 9, Seq: 3, Body: []byte("hello")}},
		Marks:   []Mark{{ID: 5, Cut: Cut{1, 1}}},
	}
	d.Threads[0].Append(Event{Kind: KindLockAcq, Res: 3, Arg: 17}, []EventID{{1, 2}, {1, 1}})
	d.Threads[1].Append(Event{Kind: KindValue, Res: 1, Arg: 12345}, nil)

	got, err := DecodeDeltaBytes(d.EncodeBytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !got.Base.Equal(d.Base) || !got.Rebase.Equal(d.Rebase) || got.ReqBase != 7 {
		t.Errorf("header mismatch: %+v", got)
	}
	if got.EventCount() != 2 || got.EdgeCount() != 2 {
		t.Errorf("events=%d edges=%d", got.EventCount(), got.EdgeCount())
	}
	ev := got.Threads[0].Events[0]
	if ev.Kind != KindLockAcq || ev.Res != 3 || ev.Arg != 17 {
		t.Errorf("event = %+v", ev)
	}
	if in := got.Threads[0].In(0); len(in) != 2 || in[0] != (EventID{1, 2}) {
		t.Errorf("in-edges = %v", in)
	}
	if len(got.Reqs) != 1 || string(got.Reqs[0].Body) != "hello" {
		t.Errorf("reqs = %+v", got.Reqs)
	}
	if len(got.Marks) != 1 || got.Marks[0].ID != 5 {
		t.Errorf("marks = %+v", got.Marks)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeDeltaBytes([]byte{0xff, 0x01, 0x02}); err == nil {
		t.Error("decoding garbage succeeded")
	}
	if _, err := DecodeDeltaBytes(nil); err == nil {
		t.Error("decoding empty succeeded")
	}
	// Truncated valid delta.
	d := &Delta{Base: Cut{0}, Threads: make([]ThreadLog, 1)}
	d.Threads[0].Append(Event{Kind: KindLockAcq, Res: 1}, nil)
	b := d.EncodeBytes()
	for cut := 1; cut < len(b); cut++ {
		if _, err := DecodeDeltaBytes(b[:cut]); err == nil {
			t.Fatalf("decoding truncated delta (%d/%d bytes) succeeded", cut, len(b))
		}
	}
}

// randomTrace builds a random trace whose edges always point to events that
// were appended earlier in real time, mirroring how the recorder works.
func randomTrace(rng *rand.Rand, nThreads, nEvents int) *Trace {
	tr := New(nThreads)
	type rec struct{ id EventID }
	var all []rec
	for i := 0; i < nEvents; i++ {
		t := int32(rng.Intn(nThreads))
		var in []EventID
		// Edges from up to 2 earlier events on other threads.
		for j := 0; j < rng.Intn(3) && len(all) > 0; j++ {
			src := all[rng.Intn(len(all))].id
			if src.Thread != t {
				in = append(in, src)
			}
		}
		id := appendEvent(tr, t, Event{Kind: KindLockAcq, Res: 1, Arg: uint64(i)}, in)
		all = append(all, rec{id})
	}
	return tr
}

func TestQuickConsistentCutProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 2+rng.Intn(4), 30)
		cc, err := tr.ConsistentCut(nil)
		if err != nil {
			return false
		}
		// Property 1: the returned cut is consistent.
		if !tr.IsConsistent(cc) {
			return false
		}
		// Property 2: maximality — extending the cut by one event on any
		// thread makes it inconsistent or exceeds the trace.
		full := tr.Cut()
		for th := range cc {
			if cc[th] < full[th] {
				ext := cc.Clone()
				ext[th]++
				if tr.IsConsistent(ext) {
					// Extending a *last* consistent cut on one thread alone
					// may still be consistent if that event's deps are all
					// inside; but then ConsistentCut should have included it.
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickDeltaRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 3, 25)
		d := asDelta(tr)
		got, err := DecodeDeltaBytes(d.EncodeBytes())
		if err != nil {
			return false
		}
		if got.EventCount() != d.EventCount() || got.EdgeCount() != d.EdgeCount() {
			return false
		}
		for t := range d.Threads {
			for i, ev := range d.Threads[t].Events {
				if got.Threads[t].Events[i] != ev {
					return false
				}
				if len(got.Threads[t].In(i)) != len(d.Threads[t].In(i)) {
					return false
				}
				for j, src := range d.Threads[t].In(i) {
					if got.Threads[t].In(i)[j] != src {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickTruncateKeepsConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 3, 40)
		cc, err := tr.ConsistentCut(nil)
		if err != nil {
			return false
		}
		if err := tr.TruncateTo(cc); err != nil {
			return false
		}
		return tr.Cut().Equal(cc) && tr.IsConsistent(tr.Cut())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if KindLockAcq.String() != "lock-acq" {
		t.Errorf("KindLockAcq = %q", KindLockAcq.String())
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind has empty String")
	}
}

func TestEventLookup(t *testing.T) {
	tr := buildFig2()
	ev := tr.Event(EventID{1, 2})
	if ev.Kind != KindLockAcq {
		t.Errorf("Event(1,2) = %+v", ev)
	}
	if in := tr.In(EventID{1, 2}); len(in) != 1 || in[0] != (EventID{0, 3}) {
		t.Errorf("In(1,2) = %v", in)
	}
}

func TestNewAtAndForget(t *testing.T) {
	// A trace reconstructed at a cut behaves like one that grew there.
	tr := NewAt(2, Cut{3, 1}, 5)
	if !tr.Cut().Equal(Cut{3, 1}) {
		t.Fatalf("NewAt cut = %v", tr.Cut())
	}
	id := appendEvent(tr, 0, Event{Kind: KindReqBegin, Res: 5}, nil)
	if id != (EventID{0, 4}) {
		t.Fatalf("append after NewAt got id %v, want (0,4)", id)
	}
	if ev := tr.Event(id); ev.Kind != KindReqBegin {
		t.Fatalf("Event(%v) = %+v", id, ev)
	}
	// Requests: index 5 is the first present one; stashed ones below work.
	appendReqs(tr, Req{Client: 9})
	if r, ok := tr.Req(5); !ok || r.Client != 9 {
		t.Errorf("Req(5) = %+v %v", r, ok)
	}
	if _, ok := tr.Req(3); ok {
		t.Error("Req(3) found without stash")
	}
	tr.StashReq(3, Req{Client: 7})
	if r, ok := tr.Req(3); !ok || r.Client != 7 {
		t.Errorf("stashed Req(3) = %+v %v", r, ok)
	}
}

func TestForgetPrefix(t *testing.T) {
	tr := buildFig2()
	before := tr.EventCount()
	tr.Forget(Cut{3, 2}, 1)
	if got := tr.Cut(); !got.Equal(Cut{4, 3}) {
		t.Fatalf("frontier changed by Forget: %v", got)
	}
	if tr.EventCount() >= before {
		t.Fatal("Forget dropped nothing")
	}
	// Events beyond the forgotten prefix stay addressable.
	if ev := tr.Event(EventID{0, 4}); ev.Kind != KindLockAcq {
		t.Errorf("Event(0,4) after Forget = %+v", ev)
	}
	if ev := tr.Event(EventID{1, 3}); ev.Kind != KindLockRel {
		t.Errorf("Event(1,3) after Forget = %+v", ev)
	}
	// Requests below the low-water mark are gone; the rest remain.
	if _, ok := tr.Req(0); ok {
		t.Error("forgotten request still present")
	}
	if r, ok := tr.Req(1); !ok || r.Client != 2 {
		t.Errorf("surviving request = %+v %v", r, ok)
	}
	// Appending continues seamlessly.
	id := appendEvent(tr, 1, Event{Kind: KindLockAcq, Res: 1}, nil)
	if id != (EventID{1, 4}) {
		t.Errorf("append after Forget id = %v", id)
	}
	// ConsistentCut still works with the collected prefix.
	cc := mustCC(t, tr, Cut{3, 2})
	if !cc.Equal(Cut{4, 4}) {
		t.Errorf("ConsistentCut after Forget = %v", cc)
	}
}

func TestLiveLowWater(t *testing.T) {
	tr := New(1)
	appendReqs(tr, Req{Client: 1}, Req{Client: 2}, Req{Client: 3})
	appendEvent(tr, 0, Event{Kind: KindReqBegin, Res: 0}, nil)
	appendEvent(tr, 0, Event{Kind: KindReqEnd, Res: 0}, nil)
	appendEvent(tr, 0, Event{Kind: KindReqBegin, Res: 2}, nil)
	appendEvent(tr, 0, Event{Kind: KindReqEnd, Res: 2}, nil)
	// Req 0 and 2 done inside cut {4}; req 1 never begun → low water 1.
	if lw := tr.LiveLowWater(Cut{4}); lw != 1 {
		t.Errorf("LiveLowWater = %d, want 1", lw)
	}
	// With everything done, low water is the table end.
	tr2 := New(1)
	appendReqs(tr2, Req{Client: 1})
	appendEvent(tr2, 0, Event{Kind: KindReqBegin, Res: 0}, nil)
	appendEvent(tr2, 0, Event{Kind: KindReqEnd, Res: 0}, nil)
	if lw := tr2.LiveLowWater(Cut{2}); lw != 1 {
		t.Errorf("all-done LiveLowWater = %d, want 1", lw)
	}
}

func TestQuickForgetPreservesSuffixSemantics(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, 3, 40)
		ref := randomTrace(rng, 0, 0) // placeholder to keep rng advancing consistently
		_ = ref
		cc, err := tr.ConsistentCut(nil)
		if err != nil {
			return false
		}
		// Remember the suffix events before forgetting.
		type rec struct {
			id trace_id
			ev Event
		}
		var suffix []rec
		full := tr.Cut()
		for t0 := 0; t0 < tr.NumThreads(); t0++ {
			for c := cc[t0] + 1; c <= full[t0]; c++ {
				id := EventID{Thread: int32(t0), Clock: c}
				suffix = append(suffix, rec{trace_id(id), tr.Event(id)})
			}
		}
		tr.Forget(cc, 0)
		if !tr.Cut().Equal(full) {
			return false
		}
		for _, s := range suffix {
			if tr.Event(EventID(s.id)) != s.ev {
				return false
			}
		}
		cc2, err := tr.ConsistentCut(cc)
		if err != nil {
			return false
		}
		return tr.IsConsistent(cc2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

type trace_id EventID

// The committed-delta apply path must never panic: adversarial cuts yield
// typed errors the replica resolves by re-syncing from a checkpoint.

func TestConsistentCutBaseBeyondFrontier(t *testing.T) {
	tr := buildFig2() // frontier [4 3]
	if _, err := tr.ConsistentCut(Cut{5, 3}); !errors.Is(err, ErrCutBeyondTrace) {
		t.Fatalf("ConsistentCut(beyond frontier) err = %v, want ErrCutBeyondTrace", err)
	}
	if _, err := tr.ConsistentCut(Cut{4, 9}); !errors.Is(err, ErrCutBeyondTrace) {
		t.Fatalf("ConsistentCut(beyond frontier) err = %v, want ErrCutBeyondTrace", err)
	}
}

func TestTruncateToBadCuts(t *testing.T) {
	tr := buildFig2() // frontier [4 3]
	if err := tr.TruncateTo(Cut{5, 3}); !errors.Is(err, ErrCutBeyondTrace) {
		t.Fatalf("TruncateTo(beyond frontier) err = %v, want ErrCutBeyondTrace", err)
	}
	if got := tr.Cut(); !got.Equal(Cut{4, 3}) {
		t.Fatalf("failed truncation mutated the trace: %v", got)
	}
	// A cut inside the garbage-collected prefix is equally unusable.
	tr.Forget(Cut{3, 2}, 0)
	if err := tr.TruncateTo(Cut{2, 2}); !errors.Is(err, ErrCutBeyondTrace) {
		t.Fatalf("TruncateTo(inside collected prefix) err = %v, want ErrCutBeyondTrace", err)
	}
	if got := tr.Cut(); !got.Equal(Cut{4, 3}) {
		t.Fatalf("failed truncation mutated the trace: %v", got)
	}
}

func TestApplyRebaseBeyondLocalTrace(t *testing.T) {
	// A rebasing delta whose cut exceeds what this replica holds (e.g. the
	// replica restarted from an older checkpoint) must be a resyncable
	// ErrCutBeyondTrace, not a crash and not a protocol-bug mismatch.
	tr := New(2)
	appendEvent(tr, 0, Event{Kind: KindLockAcq, Res: 1}, nil)
	d := &Delta{Rebase: Cut{3, 0}, Base: Cut{3, 0}, Threads: make([]ThreadLog, 2)}
	err := tr.Apply(d)
	if !errors.Is(err, ErrCutBeyondTrace) {
		t.Fatalf("Apply(rebase beyond trace) err = %v, want ErrCutBeyondTrace", err)
	}
	if errors.Is(err, ErrBaseMismatch) {
		t.Fatal("desync misclassified as protocol-bug base mismatch")
	}
	if got := tr.Cut(); !got.Equal(Cut{1, 0}) {
		t.Fatalf("failed apply mutated the trace: %v", got)
	}
}

func TestApplyRebaseInsideCollectedPrefix(t *testing.T) {
	tr := buildFig2()
	tr.Forget(Cut{3, 2}, 0)
	d := &Delta{Rebase: Cut{2, 1}, Base: Cut{2, 1}, ReqBase: 2, Threads: make([]ThreadLog, 2)}
	if err := tr.Apply(d); !errors.Is(err, ErrCutBeyondTrace) {
		t.Fatalf("Apply(rebase into collected prefix) err = %v, want ErrCutBeyondTrace", err)
	}
}

func TestApplyStaleBaseIsMismatch(t *testing.T) {
	// A stale (non-rebase) base is a protocol bug, not a resync condition.
	tr := buildFig2() // frontier [4 3]
	d := &Delta{Base: Cut{3, 3}, ReqBase: 2, Threads: make([]ThreadLog, 2)}
	err := tr.Apply(d)
	if !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("Apply(stale base) err = %v, want ErrBaseMismatch", err)
	}
	if errors.Is(err, ErrCutBeyondTrace) {
		t.Fatal("stale base misclassified as resyncable desync")
	}
}

func TestApplyOverlappingReplayIsMismatch(t *testing.T) {
	// Applying the same delta twice (an overlapping replay of the commit
	// stream) must fail the base check the second time.
	tr := New(2)
	d := &Delta{Base: Cut{0, 0}, Threads: make([]ThreadLog, 2)}
	d.Threads[0].Append(Event{Kind: KindLockAcq, Res: 1}, nil)
	if err := tr.Apply(d); err != nil {
		t.Fatalf("first Apply: %v", err)
	}
	if err := tr.Apply(d); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("second Apply err = %v, want ErrBaseMismatch", err)
	}
}
