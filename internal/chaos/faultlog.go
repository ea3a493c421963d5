// Package chaos is the fault-injection engine: seed-deterministic
// nemesis schedules (crashes, primary kills, partitions, message loss
// and delay bursts, WAL write errors) executed against an in-process
// cluster under the simulator, plus the scenario runner that drives a
// recorded client workload through the faults and hands the evidence —
// concurrent histories, chosen logs, quiesced states — to the check
// package for verdicts.
package chaos

import (
	"errors"
	"sync"

	"rex/internal/storage"
)

// errInjected is the error every armed append fails with; a replica
// that crash-stopped on it is down, not faulty.
var errInjected = errors.New("chaos: injected WAL write error")

// FaultLog wraps a storage.Log and fails the next armed number of
// Appends, modelling a dying disk under the consensus WAL. The paxos
// node reacts crash-stop, so the chaos engine treats an armed fault as a
// delayed crash of that replica.
type FaultLog struct {
	mu       sync.Mutex
	inner    storage.Log
	armed    int
	injected uint64
}

// NewFaultLog wraps inner.
func NewFaultLog(inner storage.Log) *FaultLog {
	return &FaultLog{inner: inner}
}

// FailAppends arms the next n Append calls to fail.
func (l *FaultLog) FailAppends(n int) {
	l.mu.Lock()
	l.armed = n
	l.mu.Unlock()
}

// Disarm cancels any pending injected failures (used before final
// recovery so the cluster can heal).
func (l *FaultLog) Disarm() {
	l.mu.Lock()
	l.armed = 0
	l.mu.Unlock()
}

// Injected reports how many appends were failed.
func (l *FaultLog) Injected() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.injected
}

// Append implements storage.Log.
func (l *FaultLog) Append(rec []byte) error {
	l.mu.Lock()
	if l.armed > 0 {
		l.armed--
		l.injected++
		l.mu.Unlock()
		return errInjected
	}
	l.mu.Unlock()
	return l.inner.Append(rec)
}

// AppendBatch implements storage.Log. An armed fault consumes up to one
// arming per record in the batch and fails the whole batch: a group
// commit is one unit of durability, so a dying disk takes every record in
// the flush down with it (the paxos node reacts crash-stop either way).
func (l *FaultLog) AppendBatch(recs [][]byte) error {
	l.mu.Lock()
	if l.armed > 0 {
		n := len(recs)
		if n > l.armed {
			n = l.armed
		}
		l.armed -= n
		l.injected += uint64(n)
		l.mu.Unlock()
		return errInjected
	}
	l.mu.Unlock()
	return l.inner.AppendBatch(recs)
}

// Records implements storage.Log.
func (l *FaultLog) Records() ([][]byte, error) { return l.inner.Records() }

// Rewrite implements storage.Log.
func (l *FaultLog) Rewrite(recs [][]byte) error { return l.inner.Rewrite(recs) }

// Close implements storage.Log.
func (l *FaultLog) Close() error { return l.inner.Close() }
