package wire

import (
	"bytes"
	"io"
	"math"
	"testing"
	"testing/iotest"
	"testing/quick"
)

func TestRoundTripBasics(t *testing.T) {
	e := NewEncoder(nil)
	e.Uvarint(0)
	e.Uvarint(300)
	e.Uvarint(math.MaxUint64)
	e.Varint(-1)
	e.Varint(1 << 40)
	e.Uint32(0xdeadbeef)
	e.Uint64(0x0123456789abcdef)
	e.Byte(7)
	e.Bool(true)
	e.Bool(false)
	e.BytesVal([]byte("hello"))
	e.String("world")
	e.Float64(3.5)

	d := NewDecoder(e.Bytes())
	if got := d.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := d.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d, want 300", got)
	}
	if got := d.Uvarint(); got != math.MaxUint64 {
		t.Errorf("Uvarint = %d, want MaxUint64", got)
	}
	if got := d.Varint(); got != -1 {
		t.Errorf("Varint = %d, want -1", got)
	}
	if got := d.Varint(); got != 1<<40 {
		t.Errorf("Varint = %d, want 1<<40", got)
	}
	if got := d.Uint32(); got != 0xdeadbeef {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := d.Uint64(); got != 0x0123456789abcdef {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := d.Byte(); got != 7 {
		t.Errorf("Byte = %d", got)
	}
	if got := d.Bool(); !got {
		t.Error("Bool = false, want true")
	}
	if got := d.Bool(); got {
		t.Error("Bool = true, want false")
	}
	if got := d.BytesVal(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("BytesVal = %q", got)
	}
	if got := d.String(); got != "world" {
		t.Errorf("String = %q", got)
	}
	if got := d.Float64(); got != 3.5 {
		t.Errorf("Float64 = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", d.Remaining())
	}
}

func TestShortBuffer(t *testing.T) {
	e := NewEncoder(nil)
	e.Uint64(42)
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.Uint64()
		if d.Err() != ErrShort {
			t.Errorf("cut=%d: err = %v, want ErrShort", cut, d.Err())
		}
	}
}

func TestCorruptLengthPrefix(t *testing.T) {
	e := NewEncoder(nil)
	e.Uvarint(1000) // claims 1000 bytes follow
	e.Byte('x')
	d := NewDecoder(e.Bytes())
	d.BytesVal()
	if d.Err() != ErrCorrupt {
		t.Errorf("err = %v, want ErrCorrupt", d.Err())
	}
}

func TestBoolCorrupt(t *testing.T) {
	d := NewDecoder([]byte{2})
	d.Bool()
	if d.Err() != ErrCorrupt {
		t.Errorf("err = %v, want ErrCorrupt", d.Err())
	}
}

func TestErrorSticky(t *testing.T) {
	d := NewDecoder(nil)
	d.Byte()
	if d.Err() != ErrShort {
		t.Fatalf("err = %v", d.Err())
	}
	// Subsequent reads keep returning zero values without changing the error.
	if v := d.Uvarint(); v != 0 {
		t.Errorf("Uvarint after error = %d", v)
	}
	if d.Err() != ErrShort {
		t.Errorf("err changed to %v", d.Err())
	}
}

func TestQuickUvarint(t *testing.T) {
	f := func(v uint64) bool {
		e := NewEncoder(nil)
		e.Uvarint(v)
		d := NewDecoder(e.Bytes())
		return d.Uvarint() == v && d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickVarint(t *testing.T) {
	f := func(v int64) bool {
		e := NewEncoder(nil)
		e.Varint(v)
		d := NewDecoder(e.Bytes())
		return d.Varint() == v && d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBytes(t *testing.T) {
	f := func(b []byte, s string) bool {
		e := NewEncoder(nil)
		e.BytesVal(b)
		e.String(s)
		d := NewDecoder(e.Bytes())
		gb := d.BytesVal()
		gs := d.String()
		return bytes.Equal(gb, b) && gs == s && d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMixedSequence(t *testing.T) {
	// A sequence of (tag, value) pairs must decode to exactly what was
	// encoded regardless of value mix.
	f := func(us []uint64, is []int64, bs [][]byte) bool {
		e := NewEncoder(nil)
		for _, v := range us {
			e.Byte(0)
			e.Uvarint(v)
		}
		for _, v := range is {
			e.Byte(1)
			e.Varint(v)
		}
		for _, v := range bs {
			e.Byte(2)
			e.BytesVal(v)
		}
		d := NewDecoder(e.Bytes())
		for _, v := range us {
			if d.Byte() != 0 || d.Uvarint() != v {
				return false
			}
		}
		for _, v := range is {
			if d.Byte() != 1 || d.Varint() != v {
				return false
			}
		}
		for _, v := range bs {
			if d.Byte() != 2 || !bytes.Equal(d.BytesVal(), v) {
				return false
			}
		}
		return d.Err() == nil && d.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(nil)
	e.Uvarint(7)
	if e.Len() == 0 {
		t.Fatal("Len = 0 after write")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Errorf("Len = %d after Reset", e.Len())
	}
	e.Uvarint(9)
	d := NewDecoder(e.Bytes())
	if got := d.Uvarint(); got != 9 {
		t.Errorf("after reset decode = %d, want 9", got)
	}
}

func TestBytesValAliasing(t *testing.T) {
	e := NewEncoder(nil)
	e.BytesVal([]byte{1, 2, 3})
	e.Byte(9)
	d := NewDecoder(e.Bytes())
	b := d.BytesVal()
	// The returned slice must have capacity clamped so appends cannot
	// clobber adjacent encoded data.
	b = append(b, 42)
	if got := d.Byte(); got != 9 {
		t.Errorf("append to decoded bytes clobbered the buffer: next byte = %d, want 9", got)
	}
}

func TestCountBoundedByRemainingInput(t *testing.T) {
	for _, c := range []struct {
		count, min, rest int
		want             int
		fails            bool
	}{
		{count: 3, min: 2, rest: 6, want: 3},
		{count: 4, min: 2, rest: 7, fails: true},
		{count: 0, min: 4, rest: 0, want: 0},
		{count: 1 << 20, min: 1, rest: 3, fails: true},
	} {
		e := NewEncoder(nil)
		e.Uvarint(uint64(c.count))
		e.Write(make([]byte, c.rest))
		d := NewDecoder(e.Bytes())
		got := d.Count(c.min)
		if c.fails {
			if got != 0 || d.Err() != ErrCorrupt {
				t.Errorf("count %d of %d-byte items in %d bytes: got %d, err %v; want 0, ErrCorrupt", c.count, c.min, c.rest, got, d.Err())
			}
			continue
		}
		if got != c.want || d.Err() != nil {
			t.Errorf("count %d of %d-byte items in %d bytes: got %d, err %v", c.count, c.min, c.rest, got, d.Err())
		}
	}
	if got := NewDecoder(nil).Count(1); got != 0 {
		t.Errorf("count from empty input = %d", got)
	}
}

// TestReadN reads bodies of every growth shape one byte per Read, and
// checks that a short input returns what arrived with io.ReadFull's error.
func TestReadN(t *testing.T) {
	for _, n := range []int{0, 1, ReadAhead - 1, ReadAhead, ReadAhead + 1, 5*ReadAhead + 7} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i * 7)
		}
		got, err := ReadN(iotest.OneByteReader(bytes.NewReader(want)), n, 0)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("n=%d: got %d bytes, err %v", n, len(got), err)
		}
		if n == 0 {
			continue
		}
		got, err = ReadN(bytes.NewReader(want[:n-1]), n, 0)
		if err != io.ErrUnexpectedEOF && !(n == 1 && err == io.EOF) {
			t.Fatalf("n=%d, one byte short: err %v", n, err)
		}
		if !bytes.Equal(got, want[:n-1]) {
			t.Fatalf("n=%d, one byte short: returned %d bytes, want %d", n, len(got), n-1)
		}
	}
}
