// Package wire implements the compact, network-byte-order encoding used by
// every protocol message in this repository. The original Wackamole paper
// notes that its messaging layer must handle endian conflicts across
// platforms (§4.2); fixing big-endian on the wire resolves that here.
//
// Writer never fails; Reader accumulates the first error and returns zero
// values afterwards, so decoding code can run straight-line and check Err
// once at the end.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// errTruncated is returned when a read runs past the end of the buffer.
var errTruncated = errors.New("wire: truncated message")

// MaxStringLen bounds length-prefixed byte fields (16-bit prefix).
const MaxStringLen = 1<<16 - 1

// Writer serializes values into a growing buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity preallocated to sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// Into returns a Writer that appends to b, so an encoding can land in storage
// the caller already owns; Bytes returns b extended.
func Into(b []byte) Writer { return Writer{buf: b} }

// Reset empties the Writer, keeping its storage for the next message.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Bytes returns the encoded buffer. The slice aliases the Writer's internal
// storage; callers must not retain it across further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends a byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// U16 appends a big-endian 16-bit value.
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }

// U32 appends a big-endian 32-bit value.
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }

// U64 appends a big-endian 64-bit value.
func (w *Writer) U64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
		return
	}
	w.U8(0)
}

// prefix16 appends n as a 16-bit length or count. Values beyond MaxStringLen
// panic: message fields in this codebase are small by construction, so an
// oversized one is a programming error.
func (w *Writer) prefix16(n int) {
	if n > MaxStringLen {
		panic(fmt.Sprintf("wire: field of %d bytes or entries exceeds %d", n, MaxStringLen))
	}
	w.U16(uint16(n))
}

// Bytes16 appends a 16-bit length prefix followed by b.
func (w *Writer) Bytes16(b []byte) {
	w.prefix16(len(b))
	w.buf = append(w.buf, b...)
}

// String appends a 16-bit length-prefixed string.
func (w *Writer) String(s string) {
	w.prefix16(len(s))
	w.buf = append(w.buf, s...)
}

// StringList appends a 16-bit count followed by each string.
func (w *Writer) StringList(ss []string) {
	w.prefix16(len(ss))
	for _, s := range ss {
		w.String(s)
	}
}

// U64List appends a 16-bit count followed by each value.
func (w *Writer) U64List(vs []uint64) {
	w.prefix16(len(vs))
	for _, v := range vs {
		w.U64(v)
	}
}

// Reader deserializes values from a buffer, remembering the first error.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many bytes are left unread.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns nil if the buffer was decoded exactly and without error.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes", r.Remaining())
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.err = errTruncated
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a big-endian 16-bit value.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian 32-bit value.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian 64-bit value.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Bool reads one byte as a boolean; any nonzero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// View16 reads a 16-bit length-prefixed byte field without copying it: the
// result aliases the Reader's buffer and is valid only as long as that is.
// It is nil after an error.
func (r *Reader) View16() []byte { return r.take(int(r.U16())) }

// String reads a 16-bit length-prefixed string.
func (r *Reader) String() string { return string(r.View16()) }

// Count16 reads the 16-bit count in front of a list whose entries take at
// least minEntry bytes each. A count the rest of the buffer could not hold is
// errTruncated — and reads as 0 — here, before the caller reserves or loops
// over anything: a datagram is the sender's to forge, count included.
func (r *Reader) Count16(minEntry int) int {
	n := int(r.U16())
	if r.err == nil && n*minEntry > r.Remaining() {
		r.err = errTruncated
	}
	if r.err != nil {
		return 0
	}
	return n
}

// StringList reads a 16-bit count-prefixed string list.
func (r *Reader) StringList() []string {
	n := r.Count16(2)
	if r.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.String())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// U64List reads a 16-bit count-prefixed list of 64-bit values.
func (r *Reader) U64List() []uint64 {
	n := r.Count16(8)
	if r.err != nil {
		return nil
	}
	out := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.U64())
	}
	return out
}
