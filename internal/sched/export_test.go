package sched

// NextWaits returns how many times thread t's Next has gone to sleep
// waiting for an event to be released.
func (r *Replayer) NextWaits(t int32) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nextWaits[t]
}
