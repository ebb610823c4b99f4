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
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Enc appends encoded fields to B. A field is appended to a copy of B's
// header and B is then resliced in place, e.B = e.B[:n], which stores only
// the length: the pointer is stored only when the append grew the array,
// so encoding a record of many fields runs no GC write barrier per field
// (Dec keeps an offset for the same reason). Callers may read, reslice or
// replace B between calls.
type Enc struct{ B []byte }

// keep makes b, which extends B, the new B.
func (e *Enc) keep(b []byte) {
	if cap(b) == cap(e.B) { // same array: only the length changed
		e.B = e.B[:len(b)]
	} else {
		e.B = b
	}
}

func (e *Enc) U64(v uint64) { e.keep(binary.AppendUvarint(e.B, v)) }
func (e *Enc) I64(v int64)  { e.keep(binary.AppendVarint(e.B, v)) }
func (e *Enc) Num(v int)    { e.I64(int64(v)) }
func (e *Enc) Byte(v byte)  { e.keep(append(e.B, v)) }

func (e *Enc) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.keep(append(e.B, s...))
}

func (e *Enc) Bytes(p []byte) {
	e.U64(uint64(len(p)))
	e.keep(append(e.B, p...))
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

// Varints reads len(dst) zig-zag varints, as that many I64 calls would,
// but decodes a value of one byte, or two in minimal form — most fields of
// most records — in place, without a call; any other takes I64's path and
// checks. After an error the rest of dst is zero.
func (d *Dec) Varints(dst []int64) {
	b, off := d.B, d.off
	for i := range dst {
		if d.err == nil && off < len(b) {
			if u := uint64(b[off]); u < 0x80 {
				off++
				dst[i] = int64(u>>1) ^ -int64(u&1)
				continue
			} else if off+1 < len(b) && b[off+1]-1 < 0x7f { // a minimal two-byte value
				u = u&0x7f | uint64(b[off+1])<<7
				off += 2
				dst[i] = int64(u>>1) ^ -int64(u&1)
				continue
			}
		}
		d.off = off
		dst[i] = d.I64()
		off = d.off
	}
	d.off = off
}

// Num, I32 and I8 read a varint that must fit the narrower type (ints, node
// ids, directions); an out-of-range value is an error, never a truncation.
// AsInt, AsI32 and AsI8 are their range checks, for values Varints read.
func (d *Dec) Num() int   { return d.AsInt(d.I64()) }
func (d *Dec) I32() int32 { return d.AsI32(d.I64()) }
func (d *Dec) I8() int8   { return d.AsI8(d.I64()) }

func (d *Dec) AsInt(v int64) int {
	if int64(int(v)) != v {
		d.Fail("varint overflows int")
		return 0
	}
	return int(v)
}

func (d *Dec) AsI32(v int64) int32 {
	if int64(int32(v)) != v {
		d.Fail("varint overflows int32")
		return 0
	}
	return int32(v)
}

func (d *Dec) AsI8(v int64) int8 {
	if int64(int8(v)) != v {
		d.Fail("varint overflows int8")
		return 0
	}
	return int8(v)
}

// AsU8 is the range check of a varint that must fit a byte-sized enum.
func (d *Dec) AsU8(v int64) uint8 {
	if uint64(v) > 0xff {
		d.Fail("varint overflows uint8")
		return 0
	}
	return uint8(v)
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
func (d *Dec) Count(what string) int { return d.Items(what, 1) }

// Items is Count for elements that each cost at least size bytes.
func (d *Dec) Items(what string, size int) int {
	n := d.U64()
	if d.err != nil {
		return 0
	}
	if n > uint64((len(d.B)-d.off)/size) {
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
