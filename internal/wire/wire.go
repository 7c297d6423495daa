// Package wire provides the compact varint message encoding used by all
// distributed algorithms in this repository.
//
// The paper's message-size claims (§1.1, §5) are stated in bits: O(log n)
// for short messages, O(p·log Δ) for the wide mode of the edge-coloring
// variant, O(Δ·log n) for the naive line-graph simulation. Encoding every
// message through this package makes those classes directly measurable by
// the simulator's byte accounting.
package wire

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// ErrTruncated is returned when a reader runs past the end of a message.
var ErrTruncated = errors.New("wire: truncated message")

// Writer appends varint-encoded values to a buffer. The zero value is ready
// to use.
type Writer struct {
	buf []byte
}

// Uint appends an unsigned value.
func (w *Writer) Uint(x uint64) *Writer {
	w.buf = binary.AppendUvarint(w.buf, x)
	return w
}

// Int appends a signed value (zigzag encoded).
func (w *Writer) Int(x int) *Writer {
	w.buf = binary.AppendVarint(w.buf, int64(x))
	return w
}

// Ints appends a length-prefixed slice of signed values.
func (w *Writer) Ints(xs []int) *Writer {
	w.Uint(uint64(len(xs)))
	for _, x := range xs {
		w.Int(x)
	}
	return w
}

// Raw appends a length-prefixed byte string (used for nesting messages, as
// the Lemma 5.2 simulation's bundles do).
func (w *Writer) Raw(b []byte) *Writer {
	w.Uint(uint64(len(b)))
	w.buf = append(w.buf, b...)
	return w
}

// String appends a length-prefixed string. The coloring service uses it to
// store request keys and algorithm names inside cached response records.
func (w *Writer) String(s string) *Writer {
	w.Uint(uint64(len(s)))
	w.buf = append(w.buf, s...)
	return w
}

// Bytes returns the encoded message. The Writer must not be reused after
// the returned slice escapes to the simulator.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the current encoded size in bytes.
func (w *Writer) Len() int { return len(w.buf) }

// Reader decodes varint values from a message. Errors latch: after the first
// failure all reads return zero values and Err reports the failure, so call
// sites may decode a full message and check Err once (handle errors once).
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over msg.
func NewReader(msg []byte) *Reader { return &Reader{buf: msg} }

// Uint decodes an unsigned value.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	x, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	r.off += n
	return x
}

// Int decodes a signed value.
func (r *Reader) Int() int {
	if r.err != nil {
		return 0
	}
	x, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	r.off += n
	return int(x)
}

// Ints decodes a length-prefixed slice written by Writer.Ints.
func (r *Reader) Ints() []int {
	n := r.Uint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.buf)) { // each element takes >= 1 byte
		r.err = ErrTruncated
		return nil
	}
	out := make([]int, 0, n)
	for i := uint64(0); i < n; i++ {
		out = append(out, r.Int())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Raw decodes a length-prefixed byte string written by Writer.Raw. The
// returned slice aliases the message buffer and must not be modified.
func (r *Reader) Raw() []byte {
	n := r.Uint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.Remaining()) {
		r.err = ErrTruncated
		return nil
	}
	out := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return out
}

// ReadString decodes a length-prefixed string written by Writer.String.
// (Deliberately not named String: a side-effecting decode must not satisfy
// fmt.Stringer, or formatting a Reader would consume its stream.)
func (r *Reader) ReadString() string {
	return string(r.Raw())
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// UintLen returns the number of bytes Writer.Uint appends for x, without
// encoding anything. Compiled algorithm forms (dist.CompiledAlgo) use the
// *Len functions to account message bytes they never materialize.
func UintLen(x uint64) int {
	return (bits.Len64(x|1) + 6) / 7
}

// IntLen returns the number of bytes Writer.Int appends for x (zigzag).
func IntLen(x int) int {
	ux := uint64(int64(x)) << 1
	if x < 0 {
		ux = ^ux
	}
	return UintLen(ux)
}

// IntsLen returns the number of bytes Writer.Ints appends for xs.
func IntsLen(xs []int) int {
	n := UintLen(uint64(len(xs)))
	for _, x := range xs {
		n += IntLen(x)
	}
	return n
}

// AppendInt appends the Writer.Int encoding of x to b. Per-vertex hot paths
// use it to pack one round's small messages into a single buffer, slicing
// each message out of it: never append into a region already passed to
// Round, and start a fresh buffer every round.
func AppendInt(b []byte, x int) []byte { return binary.AppendVarint(b, int64(x)) }

// AppendUint appends the Writer.Uint encoding of x to b; see AppendInt.
func AppendUint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

// EncodeInts is a convenience for single-shot encoding of signed values.
func EncodeInts(xs ...int) []byte {
	var w Writer
	for _, x := range xs {
		w.Int(x)
	}
	return w.Bytes()
}

// DecodeInt decodes a single signed value from msg — the one-value message
// every per-vertex color exchange sends — without allocating. It agrees
// with DecodeInts(msg, 1) on every input, errors included: trailing bytes
// are ignored and a short or overlong varint is ErrTruncated.
func DecodeInt(msg []byte) (int, error) {
	x, n := binary.Varint(msg)
	if n <= 0 {
		return 0, ErrTruncated
	}
	return int(x), nil
}

// DecodeInts decodes exactly n signed values from msg.
func DecodeInts(msg []byte, n int) ([]int, error) {
	r := NewReader(msg)
	out := make([]int, n)
	for i := range out {
		out[i] = r.Int()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
