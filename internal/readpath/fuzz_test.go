package readpath

import (
	"bytes"
	"testing"

	"rex/internal/trace"
	"rex/internal/wire"
)

// FuzzTokenRoundTrip checks that any structurally valid token survives
// Encode/Decode unchanged, that Size is the encoded length, and that a
// decode into reused storage overwrites every entry it keeps.
func FuzzTokenRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint64(0), uint64(0), []byte(nil))
	f.Add(uint32(3), uint64(7), uint64(900), []byte{1, 2, 3, 4})
	f.Add(uint32(1<<20), uint64(1)<<60, uint64(1)<<50, bytes.Repeat([]byte{0xff}, 32))
	f.Fuzz(func(t *testing.T, group uint32, epoch, applied uint64, cutRaw []byte) {
		tok := Token{Group: int(group), Epoch: epoch, Applied: applied}
		if len(cutRaw) > 0 {
			tok.Cut = make(trace.Cut, len(cutRaw))
			for i, b := range cutRaw {
				tok.Cut[i] = int32(b) << (uint(i) % 20)
			}
		}
		enc := tok.EncodeBytes()
		if len(enc) != tok.Size() {
			t.Fatalf("Size = %d, encoding has %d bytes", tok.Size(), len(enc))
		}
		got, err := DecodeTokenBytes(enc, trace.Cut{-1, -1, -1, -1})
		if err != nil {
			t.Fatalf("decode of freshly encoded token failed: %v", err)
		}
		if got.Group != tok.Group || got.Epoch != tok.Epoch || got.Applied != tok.Applied {
			t.Fatalf("round trip changed coordinates: %+v -> %+v", tok, got)
		}
		if len(got.Cut) != len(tok.Cut) {
			t.Fatalf("round trip changed cut length: %d -> %d", len(tok.Cut), len(got.Cut))
		}
		for i := range tok.Cut {
			if got.Cut[i] != tok.Cut[i] {
				t.Fatalf("round trip changed cut[%d]: %d -> %d", i, tok.Cut[i], got.Cut[i])
			}
		}
	})
}

// FuzzTokenDecode throws arbitrary bytes at the decoder: it must never
// panic, and whatever it accepts must re-encode to something it decodes
// to the same token (decode is a projection onto valid tokens).
func FuzzTokenDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0x00})
	f.Add([]byte{0x80})                                                 // truncated uvarint
	f.Add([]byte{0x01, 0x02, 0x03, 0xff})                               // truncated cut
	f.Add((Token{Epoch: 2, Applied: 9}).EncodeBytes())                  // valid
	f.Add([]byte{0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // giant cut length
	f.Fuzz(func(t *testing.T, data []byte) {
		tok, err := DecodeTokenBytes(data, nil)
		if err != nil {
			return
		}
		again, err := DecodeTokenBytes(tok.EncodeBytes(), nil)
		if err != nil {
			t.Fatalf("re-decode of accepted token failed: %v", err)
		}
		if !again.Covers(tok) || !tok.Covers(again) {
			t.Fatalf("accepted token is not a fixed point: %+v vs %+v", tok, again)
		}
	})
}

// FuzzTokenMerge checks merge's contract on arbitrary token pairs: the
// result is at least as fresh as both inputs within an epoch, and never
// panics across epochs.
func FuzzTokenMerge(f *testing.F) {
	f.Add(uint64(1), uint64(5), []byte{3, 1}, uint64(1), uint64(9), []byte{1, 4})
	f.Add(uint64(1), uint64(5), []byte{3}, uint64(2), uint64(4), []byte{9, 9, 9})
	f.Fuzz(func(t *testing.T, epochA, appliedA uint64, cutA []byte, epochB, appliedB uint64, cutB []byte) {
		mk := func(epoch, applied uint64, raw []byte) Token {
			tok := Token{Epoch: epoch, Applied: applied}
			if len(raw) > 0 {
				tok.Cut = make(trace.Cut, len(raw))
				for i, b := range raw {
					tok.Cut[i] = int32(b)
				}
			}
			return tok
		}
		a, b := mk(epochA, appliedA, cutA), mk(epochB, appliedB, cutB)
		m := a.Merge(b)
		if a.Epoch == b.Epoch {
			if !m.Covers(a) || !m.Covers(b) {
				t.Fatalf("same-epoch merge lost freshness: %+v + %+v = %+v", a, b, m)
			}
		} else {
			want := a
			if b.Epoch > a.Epoch {
				want = b
			}
			if m.Epoch != want.Epoch || m.Applied != want.Applied {
				t.Fatalf("cross-epoch merge did not keep the newer epoch wholesale: %+v + %+v = %+v", a, b, m)
			}
		}
	})
}

// Keep the fuzz corpus decoder honest against the streaming decoder too:
// DecodeToken must leave the decoder usable (no panic) on any prefix.
func FuzzTokenDecodePrefix(f *testing.F) {
	full := (Token{Group: 2, Epoch: 3, Applied: 41, Cut: trace.Cut{5, 0, 7}}).EncodeBytes()
	for i := 0; i <= len(full); i++ {
		f.Add(full[:i])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := wire.NewDecoder(data)
		_, _ = DecodeToken(d, nil)
	})
}
