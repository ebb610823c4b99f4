// Package codec holds the varint primitives every binary record in the
// repository is built from: the HPCK checkpoint payloads (sim.Snapshot,
// shard.ShardPart, shard.Manifest) and the dshard wire messages. It is a
// leaf: it imports nothing from the module, so the types that own a record
// layout can sit beside the structs they serialize.
//
// Enc is an append-only writer. Dec is a bounds-checked reader that keeps
// the first error and returns zero values afterwards, so decode paths need
// no per-field error handling and hostile input cannot panic. Dec accepts
// only what Enc emits — minimal varints, 0/1 booleans, values that fit
// their type — so every accepted input re-encodes to the same bytes, and
// collection counts are guarded by the bytes remaining, so a corrupt count
// cannot drive an allocation larger than the input.
//
// Hex32 is the one text primitive: the CRC field of the line-framed logs.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Enc appends encoded fields to B.
type Enc struct{ B []byte }

func (e *Enc) U64(v uint64) { e.B = binary.AppendUvarint(e.B, v) }
func (e *Enc) I64(v int64)  { e.B = binary.AppendVarint(e.B, v) }
func (e *Enc) Num(v int)    { e.I64(int64(v)) }
func (e *Enc) Byte(v byte)  { e.B = append(e.B, v) }

func (e *Enc) Bool(v bool) {
	if v {
		e.B = append(e.B, 1)
	} else {
		e.B = append(e.B, 0)
	}
}

func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.B = append(e.B, s...)
}

func (e *Enc) Bytes(p []byte) {
	e.U64(uint64(len(p)))
	e.B = append(e.B, p...)
}

// Hex32 parses the CRC field that leads every line of the line-framed logs
// (the job WAL, conflict traces): exactly eight lowercase hex digits, the
// bytes the writers' %08x emits. Anything else — a space, a 0x prefix, upper
// case, a short or long field — is refused rather than read loosely.
func Hex32(field []byte) (uint32, bool) {
	if len(field) != 8 {
		return 0, false
	}
	var v uint32
	for _, c := range field {
		switch {
		case '0' <= c && c <= '9':
			v = v<<4 | uint32(c-'0')
		case 'a' <= c && c <= 'f':
			v = v<<4 | uint32(c-'a'+10)
		default:
			return 0, false
		}
	}
	return v, true
}

// Dec consumes encoded fields from B. It tracks its position with an
// offset (B itself is never resliced), so decoding writes no pointers.
type Dec struct {
	B   []byte
	off int
	err error
}

// Fail records a decoding error; only the first one sticks.
func (d *Dec) Fail(what string) {
	if d.err == nil {
		d.err = errors.New(what)
	}
}

// Err returns the first error recorded so far.
func (d *Dec) Err() error { return d.err }

func (d *Dec) U64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.B) && d.B[d.off] < 0x80 { // one-byte values are most of every record
		d.off++
		return uint64(d.B[d.off-1])
	}
	v, n := binary.Uvarint(d.B[d.off:])
	if n <= 0 {
		d.Fail("truncated or overlong uvarint")
		return 0
	}
	if d.B[d.off+n-1] == 0 { // n >= 2 here: a trailing zero byte carries nothing
		d.Fail("non-minimal uvarint")
		return 0
	}
	d.off += n
	return v
}

// I64 reads a zig-zag varint, as binary.AppendVarint writes it.
func (d *Dec) I64() int64 {
	ux := d.U64()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Num, I32 and I8 read a varint that must fit the narrower type (ints, node
// ids, directions); an out-of-range value is an error, never a truncation.
func (d *Dec) Num() int {
	v := d.I64()
	if int64(int(v)) != v {
		d.Fail("varint overflows int")
		return 0
	}
	return int(v)
}

func (d *Dec) I32() int32 {
	v := d.I64()
	if int64(int32(v)) != v {
		d.Fail("varint overflows int32")
		return 0
	}
	return int32(v)
}

func (d *Dec) I8() int8 {
	v := d.I64()
	if int64(int8(v)) != v {
		d.Fail("varint overflows int8")
		return 0
	}
	return int8(v)
}

func (d *Dec) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.B) {
		d.Fail("truncated byte")
		return 0
	}
	d.off++
	return d.B[d.off-1]
}

func (d *Dec) Bool() bool {
	v := d.Byte()
	if v > 1 {
		d.Fail("bool is neither 0 nor 1")
		return false
	}
	return v == 1
}

func (d *Dec) Str() string { return string(d.span("string")) }

// Bytes returns a copy (nil when empty), so the input buffer can be reused.
func (d *Dec) Bytes() []byte {
	p := d.span("byte string")
	if len(p) == 0 {
		return nil
	}
	return append([]byte(nil), p...)
}

// View is Bytes without the copy: the returned slice aliases the input, so
// it is valid only as long as the caller keeps B unchanged.
func (d *Dec) View() []byte { return d.span("byte string") }

func (d *Dec) span(what string) []byte {
	n := d.Count(what)
	p := d.B[d.off : d.off+n]
	d.off += n
	return p
}

// Count reads a collection length and guards it against the bytes left in
// the payload (each element costs at least one byte), so a corrupted count
// cannot drive a huge allocation.
func (d *Dec) Count(what string) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.B)-d.off) {
		d.Fail(what + " count exceeds payload")
		return 0
	}
	return int(n)
}

// Done returns the first error, or an error if input is left over.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.B) {
		return fmt.Errorf("%d trailing bytes", len(d.B)-d.off)
	}
	return nil
}
