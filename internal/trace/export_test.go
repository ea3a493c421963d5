package trace

// ChunkLen exposes the storage chunk length to the external tests, which
// aim cuts at chunk boundaries.
const ChunkLen = chunkLen

// SpareChunks returns how many dropped event chunks the trace holds for
// reuse.
func (tr *Trace) SpareChunks() int {
	n := 0
	for i := range tr.threads {
		n += len(tr.threads[i].spare)
	}
	return n
}
