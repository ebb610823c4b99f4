package codec

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// TestRoundTrip: every primitive reads back what was written, Done accepts
// exactly the bytes written, and one trailing byte is refused.
func TestRoundTrip(t *testing.T) {
	var e Enc
	e.U64(0)
	e.U64(math.MaxUint64)
	e.I64(math.MinInt64)
	e.I64(-1)
	e.Num(300)
	e.Byte(0xA5)
	e.Bool(true)
	e.Bool(false)
	e.Str("héllo")
	e.Bytes(nil)
	e.Bytes([]byte{1, 2, 3})

	d := Dec{B: e.B}
	if d.U64() != 0 || d.U64() != math.MaxUint64 || d.I64() != math.MinInt64 || d.I64() != -1 ||
		d.Num() != 300 || d.Byte() != 0xA5 || !d.Bool() || d.Bool() || d.Str() != "héllo" ||
		d.Bytes() != nil || !bytes.Equal(d.Bytes(), []byte{1, 2, 3}) {
		t.Fatalf("round trip diverged (err %v)", d.Err())
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	d = Dec{B: []byte{7, 0}}
	d.U64()
	if err := d.Done(); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: err = %v", err)
	}
}

// TestVarints: Varints reads what as many I64 calls read, one-byte and
// longer values mixed, and zeroes what follows an error.
func TestVarints(t *testing.T) {
	want := []int64{0, -1, 63, -64, 64, -65, math.MaxInt64, math.MinInt64, 5}
	var e Enc
	for _, v := range want {
		e.I64(v)
	}
	d := Dec{B: e.B}
	got := make([]int64, len(want))
	d.Varints(got)
	if d.Done() != nil || !slices.Equal(got, want) {
		t.Fatalf("Varints read %v (err %v), want %v", got, d.Done(), want)
	}
	d = Dec{B: e.B[:len(e.B)-2]} // cuts MinInt64 short, drops 5
	got = []int64{9, 9, 9, 9, 9, 9, 9, 9, 9}
	d.Varints(got)
	if d.Err() == nil || !slices.Equal(got, append(want[:7:7], 0, 0)) {
		t.Fatalf("truncated Varints read %v (err %v)", got, d.Err())
	}
}

// TestBytesCopies: Bytes must not alias the input, which callers recycle.
func TestBytesCopies(t *testing.T) {
	var e Enc
	e.Bytes([]byte("abc"))
	d := Dec{B: e.B}
	got := d.Bytes()
	e.B[1] = 'X'
	if string(got) != "abc" {
		t.Fatalf("Bytes aliases its input: %q", got)
	}
}

// TestViewAliases: View hands out the input's own bytes, length-guarded like
// Bytes.
func TestViewAliases(t *testing.T) {
	var e Enc
	e.Bytes([]byte("abc"))
	e.Bytes(nil)
	d := Dec{B: e.B}
	got := d.View()
	e.B[2] = 'X'
	if string(got) != "aXc" {
		t.Fatalf("View copied its input: %q", got)
	}
	if empty := d.View(); len(empty) != 0 || d.Done() != nil {
		t.Fatalf("empty view: %q, %v", empty, d.Done())
	}
	short := Dec{B: e.B[:3]}
	if short.View(); short.Err() == nil {
		t.Fatal("View past the end of the payload accepted")
	}
}

// TestRejections: truncation at every offset, non-canonical encodings,
// out-of-range narrow values and oversized counts all fail — and the first
// failure sticks, zeroing every later read.
func TestRejections(t *testing.T) {
	var e Enc
	e.U64(1 << 40)
	e.Str("abc")
	e.I64(-70000)
	for n := 0; n < len(e.B); n++ {
		d := Dec{B: e.B[:n]}
		d.U64()
		d.Str()
		d.I64()
		if d.Done() == nil {
			t.Fatalf("prefix of %d bytes accepted", n)
		}
	}
	huge := binary63()
	cases := map[string]func(d *Dec){
		"non-minimal uvarint": func(d *Dec) { d.B = []byte{0x80, 0x00}; d.U64() },
		"non-minimal varint":  func(d *Dec) { d.B = []byte{0x81, 0x00}; d.I64() },
		"overlong uvarint":    func(d *Dec) { d.B = bytes.Repeat([]byte{0xFF}, 11); d.U64() },
		"bool 2":              func(d *Dec) { d.B = []byte{2}; d.Bool() },
		"int32 overflow":      func(d *Dec) { var e Enc; e.I64(math.MaxInt32 + 1); d.B = e.B; d.I32() },
		"int8 overflow":       func(d *Dec) { var e Enc; e.I64(-129); d.B = e.B; d.I8() },
		"count 2^63":          func(d *Dec) { d.B = huge; d.Count("thing") },
		"string 2^63":         func(d *Dec) { d.B = huge; _ = d.Str() },
		"count beyond input":  func(d *Dec) { d.B = []byte{5, 1, 2, 3, 4}; d.Count("thing") },
		"items beyond input":  func(d *Dec) { d.B = []byte{3, 1, 2, 3, 4, 5}; d.Items("pair", 2) },
		"varints non-minimal": func(d *Dec) { d.B = []byte{2, 0x81, 0x00}; d.Varints(make([]int64, 2)) },
	}
	for name, run := range cases {
		var d Dec
		run(&d)
		if d.Err() == nil {
			t.Errorf("%s: accepted", name)
		}
		first := d.Err()
		if d.U64() != 0 || d.Num() != 0 || d.Bool() || d.Str() != "" || d.Count("x") != 0 || d.Err() != first {
			t.Errorf("%s: reads after the first error are not inert", name)
		}
	}
}

func binary63() []byte {
	var e Enc
	e.U64(1 << 63)
	return e.B
}
