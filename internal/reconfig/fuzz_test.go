package reconfig

import (
	"bytes"
	"testing"

	"rex/internal/alloctest"
)

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
		if got := alloctest.MinBytes(alloctest.MaxDecode(len(data), 128), func() { m, err = DecodeValue(data) }); got > alloctest.MaxDecode(len(data), 128) {
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
		if got := alloctest.MinBytes(alloctest.MaxDecode(len(data), 128), func() { s, err = DecodeSchedule(data) }); got > alloctest.MaxDecode(len(data), 128) {
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
