// Package check verifies the correctness contract the chaos engine
// stresses: client operations are recorded as a concurrent history and
// tested for linearizability against a sequential model of the
// application (a WGL-style search with memoization, per-key
// partitioning, and sound handling of timed-out operations), and the
// replica group's structure is checked directly — the prefix property
// across committed instances and cross-replica state agreement after
// quiescence.
package check

import (
	"math"
	"sync"
	"time"
)

// Unknown marks an operation whose completion was never observed: it may
// take effect at any point after its invocation, or never.
const Unknown = time.Duration(math.MaxInt64)

// Op is one client operation in a concurrent history.
type Op struct {
	Client    uint64
	Input     []byte
	Output    []byte        // response bytes; nil if the op timed out
	Begin     time.Duration // invocation time
	End       time.Duration // response time, or Unknown
	Ok        bool          // a response was observed
	discarded bool          // provably never executed; excluded from Ops
}

// History records operations concurrently. It implements
// client.Recorder; the now function supplies (virtual) time.
type History struct {
	mu  sync.Mutex
	now func() time.Duration
	ops []Op
}

// NewHistory returns an empty history whose timestamps come from now.
func NewHistory(now func() time.Duration) *History {
	return &History{now: now}
}

// Invoke records an operation's start and returns its id.
func (h *History) Invoke(client uint64, input []byte) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	id := uint64(len(h.ops))
	h.ops = append(h.ops, Op{
		Client: client,
		Input:  append([]byte(nil), input...),
		Begin:  h.now(),
		End:    Unknown,
	})
	return id
}

// Return records a successful completion.
func (h *History) Return(id uint64, output []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	op := &h.ops[id]
	op.Output = append([]byte(nil), output...)
	op.End = h.now()
	op.Ok = true
}

// Timeout marks the operation's outcome as unknown. Invoke already set
// End to Unknown, so this is a no-op kept for interface clarity.
func (h *History) Timeout(id uint64) {}

// Discard removes an operation whose every attempt was answered with a
// definite did-not-execute NACK (shed, deadline-expired, not-primary).
// Unlike Timeout, which leaves the op haunting the checker as
// maybe-takes-effect-anytime, a discarded op is dropped from the
// history entirely — under saturating overload most submissions are
// shed, and keeping them as unknowns would blow up the WGL search.
// Callers must be certain: discarding an op that did execute makes the
// checker unsound.
func (h *History) Discard(id uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ops[id].discarded = true
}

// Ops returns a snapshot of the recorded history. Operations that never
// completed keep End == Unknown; discarded operations are excluded.
func (h *History) Ops() []Op {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]Op, 0, len(h.ops))
	for _, op := range h.ops {
		if !op.discarded {
			out = append(out, op)
		}
	}
	return out
}

// Len reports the number of recorded operations (discarded included —
// it is an id space, not a live count).
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.ops)
}
