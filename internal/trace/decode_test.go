package trace

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// goldenDelta exercises every part of the wire form: a rebase, edges, the
// conflict-class table (a catch-all request, a repeated class, an empty
// body) and a mark.
func goldenDelta() *Delta {
	d := &Delta{
		Rebase:  Cut{3, 1},
		Base:    Cut{3, 1},
		ReqBase: 300,
		Threads: make([]ThreadLog, 2),
		Reqs: []Req{
			{Client: 7, Seq: 1, Class: 0, Body: []byte("put k1")},
			{Client: 8, Seq: 200, Class: 9000, Body: []byte("put k2")},
			{Client: 7, Seq: 2, Class: 9000, Body: nil},
		},
		Marks: []Mark{{ID: 1 << 40, Cut: Cut{4, 2}}},
	}
	d.Threads[0].Append(Event{Kind: KindReqBegin, Res: 300}, nil)
	d.Threads[0].Append(Event{Kind: KindLockAcq, Res: 5, Arg: 1 << 33}, []EventID{{1, 1}, {1, 2}})
	d.Threads[1].Append(Event{Kind: KindReqEnd, Res: 301, Arg: 0xdeadbeefcafef00d}, []EventID{{0, 4}})
	return d
}

// goldenHex is goldenDelta's encoding. The encoding is the Paxos value and
// the WAL record body, so it must not change with the in-memory layout.
const goldenHex = "0201020301020301ac02020201ac0200000305808080802002010101020102ad028de0fbd7fcddefd6de010100040301a84607010006707574206b3108c8010106707574206b320702010001808080808020020402"

func TestDeltaEncodingGolden(t *testing.T) {
	enc := goldenDelta().EncodeBytes()
	if got := hex.EncodeToString(enc); got != goldenHex {
		t.Fatalf("encoding changed:\n got %s\nwant %s", got, goldenHex)
	}
	var d Delta
	if err := d.DecodeFrom(enc); err != nil {
		t.Fatal(err)
	}
	if again := d.EncodeBytes(); !bytes.Equal(again, enc) {
		t.Fatalf("decode/encode round trip changed the bytes:\n got %x\nwant %x", again, enc)
	}
}

// FuzzDecodeDelta: decoding never panics; decoding a into a scratch Delta
// and then b into the same scratch equals a fresh decode of b; and when b
// is corrupt the scratch is left empty, never holding a's contents as if
// they were b's.
func FuzzDecodeDelta(f *testing.F) {
	golden, _ := hex.DecodeString(goldenHex)
	plain := &Delta{Base: Cut{0, 0}, Threads: make([]ThreadLog, 2), Reqs: []Req{{Client: 1, Seq: 1, Body: []byte("x")}}}
	plain.Threads[1].Append(Event{Kind: KindLockAcq, Res: 1}, []EventID{{0, 1}})
	seeds := [][]byte{golden, plain.EncodeBytes(), (&Delta{Base: Cut{}}).EncodeBytes(), golden[:len(golden)/2], {0xff, 0x01}, nil}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var scratch Delta
		_ = scratch.DecodeFrom(a)
		errScratch := scratch.DecodeFrom(b)
		fresh, errFresh := DecodeDeltaBytes(b)
		if (errScratch == nil) != (errFresh == nil) {
			t.Fatalf("scratch decode err = %v, fresh decode err = %v", errScratch, errFresh)
		}
		if errFresh != nil {
			if len(scratch.Threads) != 0 || len(scratch.Base) != 0 || scratch.ReqBase != 0 || !scratch.Empty() {
				t.Fatalf("failed decode left contents behind: %+v", scratch)
			}
			return
		}
		if got, want := scratch.EncodeBytes(), fresh.EncodeBytes(); !bytes.Equal(got, want) {
			t.Fatalf("decode into a used scratch differs from a fresh decode:\n got %x\nwant %x", got, want)
		}
		if (scratch.Rebase == nil) != (fresh.Rebase == nil) {
			t.Fatalf("rebase presence differs: %v vs %v", scratch.Rebase, fresh.Rebase)
		}
	})
}

// putThreads is the worker count of the put-shaped deltas below.
const putThreads = 4

// putDeltas encodes n consecutive committed deltas continuing tr's
// frontier, each shaped like an lsmkv put on a realbench primary: one
// request with a 64-byte body and 22 events on one worker thread
// (req-begin, ten lock acquire/release pairs, req-end), two of the
// acquires carrying an edge from the previous put's thread (about 0.09
// edges per event).
func putDeltas(tr *Trace, n int) [][]byte {
	base, reqBase := tr.Cut(), tr.ReqEnd()
	body := bytes.Repeat([]byte("v"), 64)
	vals := make([][]byte, n)
	for i := range vals {
		d := &Delta{Base: base.Clone(), ReqBase: reqBase, Threads: make([]ThreadLog, putThreads)}
		t := int(reqBase) % putThreads
		prev := (t + putThreads - 1) % putThreads
		l := &d.Threads[t]
		l.Append(Event{Kind: KindReqBegin, Res: uint32(reqBase)}, nil)
		for k := 0; k < 10; k++ {
			var in []EventID
			if k < 2 && base[prev] > 0 {
				in = []EventID{{Thread: int32(prev), Clock: base[prev]}}
			}
			l.Append(Event{Kind: KindLockAcq, Res: uint32(k), Arg: reqBase*2 + uint64(k)}, in)
			l.Append(Event{Kind: KindLockRel, Res: uint32(k), Arg: reqBase*2 + uint64(k) + 1}, nil)
		}
		l.Append(Event{Kind: KindReqEnd, Res: uint32(reqBase), Arg: reqBase * 0x9e3779b97f4a7c15}, nil)
		d.Reqs = []Req{{Client: reqBase % 64, Seq: reqBase, Class: uint32(1 + reqBase%16), Body: body}}
		vals[i] = d.EncodeBytes()
		base[t] += int32(len(l.Events))
		reqBase++
	}
	return vals
}

// BenchmarkApplyCommittedDelta measures what every replica does per
// committed instance: decode the delta into a reused scratch and apply it
// to a warm trace. The trace is garbage collected every 4096 deltas, as a
// checkpoint would; encoding the deltas is not timed.
func BenchmarkApplyCommittedDelta(b *testing.B) {
	tr := New(putThreads)
	var d Delta
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		vals := putDeltas(tr, min(b.N-done, 4096))
		b.StartTimer()
		for _, v := range vals {
			if err := d.DecodeFrom(v); err != nil {
				b.Fatal(err)
			}
			if err := tr.Apply(&d); err != nil {
				b.Fatal(err)
			}
		}
		tr.Forget(tr.Cut(), tr.ReqEnd())
		done += len(vals)
	}
}
