package reconfig

import (
	"bytes"
	"runtime"
	"testing"
)

// minAllocBytes returns the bytes the process allocated while a
// repeatable f ran. A run within limit settles it; a run over limit is
// repeated and the least of five kept, so an allocation by some other
// goroutine cannot fail a pin. Reading the counters stops the world, the
// larger part of a fuzz execution's cost, so a run within limit is never
// repeated.
func minAllocBytes(limit uint64, f func()) uint64 {
	var least uint64
	for i := 0; i < 5 && (i == 0 || least > limit); i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; i == 0 || got < least {
			least = got
		}
	}
	return least
}

// maxDecodeAlloc bounds what decoding n input bytes may allocate: every
// count is bounded by the input, and each item costs a few dozen bytes.
func maxDecodeAlloc(n int) uint64 { return 128*uint64(n) + 4096 }

func sampleMembership() Membership {
	m, err := Initial(3).WithAdd(5, "10.0.0.5:7000")
	if err != nil {
		panic(err)
	}
	return m
}

func FuzzDecodeValue(f *testing.F) {
	f.Add(EncodeValue(Initial(3)))
	f.Add(EncodeValue(sampleMembership()))
	f.Add([]byte{valueMagic, encVersion, 1, 0, 0x80, 0x80, 0x40}) // 2^20 voters
	f.Add([]byte{valueMagic})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Membership
		var err error
		if got := minAllocBytes(maxDecodeAlloc(len(data)), func() { m, err = DecodeValue(data) }); got > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		enc := EncodeValue(m)
		again, err := DecodeValue(enc)
		if err != nil {
			t.Fatalf("re-decoding a valid membership: %v", err)
		}
		if !bytes.Equal(EncodeValue(again), enc) {
			t.Fatalf("membership does not round-trip:\n%x\n%x", enc, EncodeValue(again))
		}
	})
}

func FuzzDecodeSchedule(f *testing.F) {
	f.Add(EncodeSchedule([]Scheduled{{FromInst: 0, M: Initial(3)}, {FromInst: 42, M: sampleMembership()}}))
	f.Add(EncodeSchedule(nil))
	f.Add([]byte{0x80, 0x80, 0x40}) // 2^20 entries
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s []Scheduled
		var err error
		if got := minAllocBytes(maxDecodeAlloc(len(data)), func() { s, err = DecodeSchedule(data) }); got > maxDecodeAlloc(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		if err != nil {
			return
		}
		enc := EncodeSchedule(s)
		again, err := DecodeSchedule(enc)
		if err != nil {
			t.Fatalf("re-decoding a valid schedule: %v", err)
		}
		if !bytes.Equal(EncodeSchedule(again), enc) {
			t.Fatalf("schedule does not round-trip:\n%x\n%x", enc, EncodeSchedule(again))
		}
	})
}
