package core

// SetRebuildHook installs f to run in every rebuild between building the
// new incarnation and publishing it. The returned func restores the
// previous hook.
func SetRebuildHook(f func(*Replica)) (restore func()) {
	prev := rebuildHook
	rebuildHook = f
	return func() { rebuildHook = prev }
}

// Fault halts r as a detected divergence would.
func (r *Replica) Fault(err error) { r.fault(err) }

// Incarnation returns the sequence number of r's current incarnation: 0
// before Start's rebuild publishes the first, then one more per rebuild.
func (r *Replica) Incarnation() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inc == nil {
		return 0
	}
	return r.inc.seq
}

// WorkerWaits returns how many times request worker i has gone to sleep
// waiting for work.
func (r *Replica) WorkerWaits(i int) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.workWaits[i]
}
