// Package wire implements the compact binary encoding used throughout Rex
// for traces, Paxos messages, and WAL records.
//
// The format is deliberately simple: unsigned varints (the same encoding as
// encoding/binary's Uvarint), zig-zag signed varints, length-prefixed byte
// strings, and fixed-width little-endian integers where alignment matters.
// Encoding never fails; decoding returns ErrCorrupt on malformed input and
// ErrShort on truncated input so callers can distinguish a torn tail (normal
// for a write-ahead log) from corruption.
package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/bits"
	"sync"
)

// ErrShort reports that the buffer ended before a complete value was read.
var ErrShort = errors.New("wire: short buffer")

// ErrCorrupt reports structurally invalid data (e.g. an overlong varint or a
// length prefix that exceeds the remaining input).
var ErrCorrupt = errors.New("wire: corrupt data")

// Encoder appends values to a byte slice. The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder writing into buf (which may be nil).
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// encPool recycles Encoders (and, more importantly, their grown buffers)
// across hot-path encodes: delta proposals, WAL record framing.
var encPool = sync.Pool{New: func() any { return &Encoder{} }}

// maxPooledBuf bounds the buffer capacity returned to the pool so one
// pathological giant delta cannot pin memory forever.
const maxPooledBuf = 1 << 22 // 4 MiB

// GetEncoder returns a pooled, reset Encoder whose buffer holds at least
// sizeHint bytes without growing. Callers that know the size of the
// previous encode (e.g. the previous delta) pass it so steady-state
// encoding never reallocates. Release the encoder when its bytes have been
// fully consumed or copied.
func GetEncoder(sizeHint int) *Encoder {
	e := encPool.Get().(*Encoder)
	if cap(e.buf) < sizeHint {
		e.buf = make([]byte, 0, sizeHint)
	} else {
		e.buf = e.buf[:0]
	}
	return e
}

// Release returns e to the pool. The caller must not touch e or any slice
// obtained from e.Bytes() afterwards (copy first if the bytes outlive the
// encode).
func (e *Encoder) Release() {
	if cap(e.buf) > maxPooledBuf {
		e.buf = nil
	}
	encPool.Put(e)
}

// AppendCopy appends the encoded bytes to dst and returns the result —
// the right-sized escape hatch before Release when the bytes must
// outlive the encoder.
func (e *Encoder) AppendCopy(dst []byte) []byte {
	return append(dst, e.buf...)
}

// Bytes returns the encoded bytes accumulated so far.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes accumulated so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the accumulated bytes but keeps the underlying storage.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uvarint appends v in unsigned varint encoding.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// UvarintLen returns the length of v's unsigned varint encoding.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// Varint appends v in zig-zag signed varint encoding.
func (e *Encoder) Varint(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Uint32 appends v as a fixed-width little-endian 32-bit value.
func (e *Encoder) Uint32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// Uint64 appends v as a fixed-width little-endian 64-bit value.
func (e *Encoder) Uint64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// Byte appends a single byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a boolean as a single 0/1 byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Write appends p, making an Encoder an io.Writer so a serializer (an
// application checkpoint, say) can write straight into the encoding.
func (e *Encoder) Write(p []byte) (int, error) {
	e.buf = append(e.buf, p...)
	return len(p), nil
}

// BytesVal appends b with a uvarint length prefix.
func (e *Encoder) BytesVal(b []byte) {
	e.Uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends s with a uvarint length prefix.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Float64 appends v as its IEEE-754 bit pattern, little-endian.
func (e *Encoder) Float64(v float64) { e.Uint64(math.Float64bits(v)) }

// Decoder reads values from a byte slice.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a Decoder reading from buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first error encountered, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Offset returns the current read offset.
func (d *Decoder) Offset() int { return d.off }

// Fail records err as the decoder's error unless one is already recorded,
// so every later read returns zero values. Parsers use it when a decoded
// value is itself invalid (a count larger than the input can hold).
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uvarint reads an unsigned varint. On error it returns 0 and records the
// error, making it safe to chain reads and check Err once.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case n > 0:
		d.off += n
		return v
	case n == 0:
		d.Fail(ErrShort)
	default:
		d.Fail(ErrCorrupt)
	}
	return 0
}

// Varint reads a zig-zag signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	switch {
	case n > 0:
		d.off += n
		return v
	case n == 0:
		d.Fail(ErrShort)
	default:
		d.Fail(ErrCorrupt)
	}
	return 0
}

// Count reads an item count for a loop or an allocation. Each item takes
// at least minItemBytes (≥ 1) of input, so a count the unread input cannot
// hold is corruption, recorded before anything is allocated for it. On
// error it returns 0, which ends any loop over the count.
func (d *Decoder) Count(minItemBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(d.Remaining()/minItemBytes) {
		d.Fail(ErrCorrupt)
		return 0
	}
	return int(n)
}

// Raw reads n bytes with no length prefix (the caller read the length).
// The returned slice aliases the decoder's buffer.
func (d *Decoder) Raw(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.Fail(ErrCorrupt)
		return nil
	}
	b := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return b
}

// ReadAhead is the most ReadN allocates before the bytes it is asked for
// start to arrive.
const ReadAhead = 64 << 10

// ReadN reads exactly n bytes from r into a new slice. It does not trust n,
// which usually comes from a length prefix on a socket: the slice starts at
// min(n, max(ahead, ReadAhead)) and at most quadruples each time it fills,
// so a prefix with no bytes behind it costs max(ahead, ReadAhead) and any
// input at most that plus 16/3 times the bytes that arrived. A caller
// derives ahead from bytes the same source has already sent in full (0
// when there are none), so what it trusts stays proportional to what
// really arrived. A body of at least r's buffer size reads straight into
// the slice. On error it returns the bytes read so far and, like
// io.ReadFull, io.EOF only if none were.
func ReadN(r io.Reader, n, ahead int) ([]byte, error) {
	buf := make([]byte, min(n, max(ahead, ReadAhead)))
	got := 0
	for {
		m, err := io.ReadFull(r, buf[got:])
		got += m
		if err == io.EOF && got > 0 {
			err = io.ErrUnexpectedEOF // EOF at a growth step
		}
		if err != nil {
			return buf[:got], err
		}
		if got == n {
			return buf, nil
		}
		next := make([]byte, min(n, 4*got))
		copy(next, buf)
		buf = next
	}
}

// Uint32 reads a fixed-width little-endian 32-bit value.
func (d *Decoder) Uint32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 4 {
		d.Fail(ErrShort)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// Uint64 reads a fixed-width little-endian 64-bit value.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 8 {
		d.Fail(ErrShort)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Byte reads a single byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.Remaining() < 1 {
		d.Fail(ErrShort)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bool reads a 0/1 byte; any other value is corruption.
func (d *Decoder) Bool() bool {
	b := d.Byte()
	if d.err != nil {
		return false
	}
	switch b {
	case 0:
		return false
	case 1:
		return true
	}
	d.Fail(ErrCorrupt)
	return false
}

// BytesVal reads a length-prefixed byte string. The returned slice aliases
// the decoder's buffer; callers that retain it must copy.
func (d *Decoder) BytesVal() []byte {
	return d.Raw(d.Uvarint())
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	return string(d.BytesVal())
}

// Float64 reads an IEEE-754 bit pattern written by Encoder.Float64.
func (d *Decoder) Float64() float64 { return math.Float64frombits(d.Uint64()) }
