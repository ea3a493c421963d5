// Package vclock implements the vector clocks Rex uses to prune causally
// redundant edges at record time (§4.2 of the paper).
//
// Each logical thread maintains a vector clock over all threads; every
// shared resource carries a snapshot of its last releaser's clock. When a
// thread is about to record a causal edge from event e to its own next
// event, the edge is redundant — implied by already-recorded edges plus
// intra-thread program order — exactly when the thread's current vector
// clock already covers e. The paper reports this pruning removes 58–99 % of
// causal edges.
package vclock

// VC is a vector clock: VC[t] is the highest clock of thread t known to
// happen before the owner's next event. Thread clocks start at 1; a zero
// entry means "nothing from that thread observed yet".
type VC []int32

// New returns a zeroed vector clock over n threads.
func New(n int) VC { return make(VC, n) }

// Clone returns an independent copy of v.
func (v VC) Clone() VC {
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// Observe records that the owner has observed thread t up to clock.
func (v VC) Observe(t int32, clock int32) {
	if int(t) < len(v) && v[t] < clock {
		v[t] = clock
	}
}

// Join folds o into v element-wise (v becomes the pointwise max).
func (v VC) Join(o VC) {
	for i := range o {
		if i >= len(v) {
			break
		}
		if v[i] < o[i] {
			v[i] = o[i]
		}
	}
}

// Covers reports whether v already knows about event (t, clock) — i.e. the
// event happens before the owner's next event via recorded edges and
// program order, so an explicit edge from it would be redundant.
func (v VC) Covers(t int32, clock int32) bool {
	return int(t) < len(v) && v[t] >= clock
}
