package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The wire format. A message is a flat sequence of fields with no type
// information: both ends know the type, as both ends of an MPI call do.
//
//	unsigned integer, count, length   uvarint
//	signed integer                    zigzag varint
//	float64                           8 bytes, little-endian IEEE 754 bits
//	[]byte, string                    length, then the bytes
//	slice of anything                 count, then the elements
//
// Writers append to a []byte; readers slice the received buffer. Nothing
// is reflected on, no descriptor travels and nothing is compiled per
// message, so a message costs its payload.
//
// Two rules follow from parsing by slicing:
//
//   - A decoded []byte aliases the received buffer (capped, so appending
//     to it cannot reach its neighbour). The receiver owns that buffer —
//     every transport delivers a private copy — but one decoded field
//     keeps the whole message alive, and writing through it is writing
//     into the message.
//   - An empty slice and a nil slice are the same message; both decode
//     as nil.

// Wire is what a message type outside the built-in shapes implements to
// travel through Encode, Decode and the typed collectives. AppendWire
// has a value receiver (Encode is handed values), ParseWire a pointer
// receiver (Decode is handed pointers), so *T is the Wire.
type Wire interface {
	// AppendWire appends the message's fields to buf and returns the
	// extended buffer.
	AppendWire(buf []byte) []byte
	// ParseWire reads the fields back in the same order. A short or
	// malformed buffer is recorded in r; implementations return r.Err()
	// or an error of their own for fields that parse but do not fit
	// together.
	ParseWire(r *Reader) error
}

// AppendUint appends an unsigned integer, count or length.
func AppendUint(buf []byte, v uint64) []byte { return binary.AppendUvarint(buf, v) }

// AppendInt appends a signed integer.
func AppendInt(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) }

// AppendFloat64 appends a float64 bit for bit (NaN payloads and the sign
// of zero survive).
func AppendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(buf, b []byte) []byte {
	return append(AppendUint(buf, uint64(len(b))), b...)
}

// AppendString appends a length-prefixed string.
func AppendString(buf []byte, s string) []byte {
	return append(AppendUint(buf, uint64(len(s))), s...)
}

// Reader parses a received buffer field by field. The first short or
// malformed field is remembered and every later read returns a zero
// value, so a parser reads straight through and checks Err once.
type Reader struct {
	buf []byte
	err error
}

// Err reports the first field that did not parse, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("truncated or malformed %s", what)
	}
	r.buf = nil
}

// Uint reads an unsigned integer.
func (r *Reader) Uint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.fail("uvarint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Int reads a signed integer.
func (r *Reader) Int() int64 {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.fail("varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Float64 reads a float64.
func (r *Reader) Float64() float64 {
	if len(r.buf) < 8 {
		r.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v
}

// Count reads the element count of a slice whose elements occupy at
// least elemSize (≥ 1) bytes each on the wire, and fails if the bytes
// that remain cannot hold that many: a count is never trusted further
// than the input that backs it, so what a parser allocates is bounded by
// the length of the message, whoever wrote it.
func (r *Reader) Count(elemSize int) int {
	n := r.Uint()
	if n > uint64(len(r.buf)/elemSize) {
		r.fail("count")
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice. The result aliases the
// buffer being read, capped at its own length; empty reads as nil.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// String reads a length-prefixed string (a copy, as strings are).
func (r *Reader) String() string { return string(r.Bytes()) }

// ReadSlice reads a count and then that many elements with elem, each at
// least elemSize bytes on the wire (see Count); empty reads as nil.
func ReadSlice[T any](r *Reader, elemSize int, elem func(*Reader) T) []T {
	n := r.Count(elemSize)
	if n == 0 {
		return nil
	}
	s := make([]T, n)
	for i := range s {
		s[i] = elem(r)
	}
	return s
}

// Encode lays v out in the wire format, in a buffer of its own. v is one
// of the built-in shapes — []byte, [][]byte, string, []string, int,
// int64, []int64 — or has an AppendWire method (see Wire); anything else
// is an error naming the type.
func Encode(v any) ([]byte, error) {
	switch v := v.(type) {
	case []byte:
		return AppendBytes(make([]byte, 0, binary.MaxVarintLen64+len(v)), v), nil
	case [][]byte:
		return packSlices(v), nil
	case string:
		return AppendString(make([]byte, 0, binary.MaxVarintLen64+len(v)), v), nil
	case []string:
		buf := AppendUint(nil, uint64(len(v)))
		for _, s := range v {
			buf = AppendString(buf, s)
		}
		return buf, nil
	case int:
		return AppendInt(nil, int64(v)), nil
	case int64:
		return AppendInt(nil, v), nil
	case []int64:
		buf := AppendUint(make([]byte, 0, binary.MaxVarintLen64*(1+len(v))), uint64(len(v)))
		for _, x := range v {
			buf = AppendInt(buf, x)
		}
		return buf, nil
	case interface{ AppendWire([]byte) []byte }:
		return v.AppendWire(nil), nil
	}
	return nil, fmt.Errorf("mpi: encode: unsupported type %T (not a built-in shape and no AppendWire method)", v)
}

// Decode parses data into out, a pointer to one of Encode's built-in
// shapes or a Wire. The whole buffer must be consumed. Byte slices in
// the result alias data (see the format notes above).
func Decode(data []byte, out any) error {
	r := Reader{buf: data}
	var err error
	switch p := out.(type) {
	case *[]byte:
		*p = r.Bytes()
	case *[][]byte:
		*p = ReadSlice(&r, 1, (*Reader).Bytes)
	case *string:
		*p = r.String()
	case *[]string:
		*p = ReadSlice(&r, 1, (*Reader).String)
	case *int:
		v := r.Int()
		if int64(int(v)) != v {
			r.fail("int (out of range)")
		}
		*p = int(v)
	case *int64:
		*p = r.Int()
	case *[]int64:
		*p = ReadSlice(&r, 1, (*Reader).Int)
	case Wire:
		err = p.ParseWire(&r)
	default:
		return fmt.Errorf("mpi: decode: unsupported type %T (not a pointer to a built-in shape and not a Wire)", out)
	}
	if err == nil {
		err = r.err
	}
	if err == nil && len(r.buf) != 0 {
		err = fmt.Errorf("%d bytes left over", len(r.buf))
	}
	if err != nil {
		return fmt.Errorf("mpi: decode %T: %w", out, err)
	}
	return nil
}

// SendValue encodes v and sends it.
func SendValue(c Comm, to, tag int, v any) error {
	data, err := Encode(v)
	if err != nil {
		return err
	}
	return sendOwned(c, to, tag, data)
}

// RecvValue receives a message and decodes it into out (a pointer).
func RecvValue(c Comm, from, tag int, out any) error {
	data, err := c.Recv(from, tag)
	if err != nil {
		return err
	}
	return Decode(data, out)
}

// BcastValue broadcasts root's value; every rank decodes it into out
// (a pointer). Root's out is left untouched (it already has the value).
func BcastValue(c Comm, root, tag int, v any, out any) error {
	var payload []byte
	if c.Rank() == root {
		data, err := Encode(v)
		if err != nil {
			return err
		}
		payload = data
	}
	data, err := Bcast(c, root, tag, payload)
	if err != nil {
		return err
	}
	if c.Rank() == root {
		return nil
	}
	return Decode(data, out)
}

// encodeAll encodes every part into a buffer of its own.
func encodeAll[T any](parts []T) ([][]byte, error) {
	raw := make([][]byte, len(parts))
	for i, p := range parts {
		data, err := Encode(p)
		if err != nil {
			return nil, err
		}
		raw[i] = data
	}
	return raw, nil
}

// decodeAll decodes one value per rank; what names the collective in
// the error.
func decodeAll[T any](what string, parts [][]byte) ([]T, error) {
	out := make([]T, len(parts))
	for r, p := range parts {
		if err := Decode(p, &out[r]); err != nil {
			return nil, fmt.Errorf("mpi: %s from rank %d: %w", what, r, err)
		}
	}
	return out, nil
}

// GatherValues gathers one value of type T per rank at root; non-root
// ranks return nil.
func GatherValues[T any](c Comm, root, tag int, v T) ([]T, error) {
	data, err := Encode(v)
	if err != nil {
		return nil, err
	}
	parts, err := gather(c, root, tag, data, sendOwned)
	if err != nil || c.Rank() != root {
		return nil, err
	}
	return decodeAll[T]("gather", parts)
}

// AllGatherValues gives every rank the slice of every rank's value.
func AllGatherValues[T any](c Comm, tag int, v T) ([]T, error) {
	data, err := Encode(v)
	if err != nil {
		return nil, err
	}
	parts, err := allGather(c, tag, data, sendOwned)
	if err != nil {
		return nil, err
	}
	return decodeAll[T]("allgather", parts)
}

// AllToAllValues performs a personalised exchange of typed values:
// parts[q] goes to rank q; the result is indexed by source rank.
func AllToAllValues[T any](c Comm, tag int, parts []T) ([]T, error) {
	raw, err := encodeAll(parts)
	if err != nil {
		return nil, err
	}
	got, err := allToAll(c, tag, raw, sendOwned)
	if err != nil {
		return nil, err
	}
	return decodeAll[T]("alltoall", got)
}

// ScatterValues distributes root's parts[r] to rank r.
func ScatterValues[T any](c Comm, root, tag int, parts []T) (T, error) {
	var zero, out T
	var raw [][]byte
	if c.Rank() == root {
		var err error
		if raw, err = encodeAll(parts); err != nil {
			return zero, err
		}
	}
	data, err := scatter(c, root, tag, raw, sendOwned)
	if err != nil {
		return zero, err
	}
	if err := Decode(data, &out); err != nil {
		return zero, err
	}
	return out, nil
}
