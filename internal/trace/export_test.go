package trace

// ChunkLen exposes the storage chunk length to the external tests, which
// aim cuts at chunk boundaries.
const ChunkLen = chunkLen
