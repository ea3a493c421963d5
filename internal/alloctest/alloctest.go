// Package alloctest measures what a piece of code allocates, for tests
// that pin it: decoders whose allocation is bounded by their input, and
// hot paths that allocate nothing or exactly what they keep. Only tests
// import it.
package alloctest

import "runtime"

// Bytes returns the bytes the process allocated while f ran.
func Bytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// MinBytes is Bytes for a repeatable f. A run within limit settles it; a
// run over limit is repeated and the least of five kept, so an allocation
// by some other goroutine cannot fail a pin. Reading the counters stops
// the world, the larger part of a fuzz execution's cost, so a run within
// limit is never repeated.
func MinBytes(limit uint64, f func()) uint64 {
	least := Bytes(f)
	for i := 1; i < 5 && least > limit; i++ {
		least = min(least, Bytes(f))
	}
	return least
}

// MaxDecode bounds what decoding n input bytes may allocate: every count
// is bounded by the input, and each item costs at most perByte bytes per
// input byte, plus a constant.
func MaxDecode(n int, perByte uint64) uint64 { return perByte*uint64(n) + 4096 }

// MaxFrameRead bounds what reading n bytes of length-prefixed frames may
// allocate: a 4 kB read buffer, wire.ReadAhead for a body that never
// arrives, a constant times the bytes that did, and an error.
func MaxFrameRead(n int) uint64 { return 80<<10 + 8*uint64(n) }
