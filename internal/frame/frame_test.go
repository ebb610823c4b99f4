package frame

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// collect reads data, accepting every payload but those fn refuses, and
// returns copies of the accepted payloads.
func collect(data []byte, refuse func(line int, payload []byte) bool) ([][]byte, int64, error) {
	var got [][]byte
	clean, err := Read(bytes.NewReader(data), func(n int, p []byte) error {
		if refuse != nil && refuse(n, p) {
			return errors.New("refused")
		}
		got = append(got, bytes.Clone(p))
		return nil
	})
	return got, clean, err
}

func TestAppendLineFormat(t *testing.T) {
	for _, p := range []string{"x", `{"wal":"hotpotatod-jobs","version":1}`, strings.Repeat("é", 300)} {
		want := fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE([]byte(p)), p)
		if got := AppendLine([]byte("prefix"), []byte(p)); string(got) != "prefix"+want {
			t.Errorf("AppendLine(%q) = %q, want %q", p, got, want)
		}
	}
}

// TestReadRejectsLooseCRC: the CRC field is exactly eight lowercase hex
// digits. A loose parser such as fmt.Sscanf's %08x also takes the field
// space-padded (" 000abcd") or left-aligned ("abcd    "), and reads
// "0x00abcd" as 0. The payload's CRC-32 is below 1<<16, so each loose
// rendering would read back as the right value.
func TestReadRejectsLooseCRC(t *testing.T) {
	var payload []byte
	var crc uint32
	for i := 0; payload == nil; i++ {
		p := fmt.Appendf(nil, `{"pad":%d}`, i)
		if c := crc32.ChecksumIEEE(p); c < 1<<16 {
			payload, crc = p, c
		}
	}
	header := AppendLine(nil, []byte("header"))
	line := func(field string) []byte {
		return append(append(bytes.Clone(header), field+" "...), append(payload, '\n')...)
	}
	if got, _, err := collect(line(fmt.Sprintf("%08x", crc)), nil); err != nil || len(got) != 2 || !bytes.Equal(got[1], payload) {
		t.Fatalf("canonical line: %q, %v", got, err)
	}
	for _, field := range []string{fmt.Sprintf(" %07x", crc), fmt.Sprintf("%-8x", crc), fmt.Sprintf("0x%06x", crc), fmt.Sprintf("%08X", crc|0xa0000000)} {
		// As the last line, the bad line is a torn tail: dropped.
		if got, clean, err := collect(line(field), nil); err != nil || len(got) != 1 || clean != int64(len(header)) {
			t.Errorf("CRC field %q: kept %d lines, clean %d, err %v", field, len(got), clean, err)
		}
		// With a line after it, it is corruption.
		if _, _, err := collect(append(line(field), header...), nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("CRC field %q mid-log: err %v, want ErrCorrupt", field, err)
		}
	}
}

// TestTornTailRule walks the rule case by case: what a bad line is, and
// where one is tolerated.
func TestTornTailRule(t *testing.T) {
	hdr := AppendLine(nil, []byte("hdr"))
	a, b := AppendLine(nil, []byte("a")), AppendLine(nil, []byte("b"))
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	flip := bytes.Clone(a)
	flip[9] ^= 1
	refuseB := func(_ int, p []byte) bool { return string(p) == "b" }
	for _, tc := range []struct {
		name   string
		data   []byte
		refuse func(int, []byte) bool
		lines  int // payloads handed to fn and accepted
		clean  int // -1: refused
	}{
		{"whole", cat(hdr, a, b), nil, 3, len(hdr) + len(a) + len(b)},
		{"header only", hdr, nil, 1, len(hdr)},
		{"empty", nil, nil, 0, -1},
		{"unterminated last", cat(hdr, a, b[:len(b)-1]), nil, 2, len(hdr) + len(a)},
		{"cut in the crc field", cat(hdr, a, b[:3]), nil, 2, len(hdr) + len(a)},
		{"crc mismatch last", cat(hdr, b, flip), nil, 2, len(hdr) + len(b)},
		{"crc mismatch mid-log", cat(hdr, flip, b), nil, 1, -1},
		{"refused last", cat(hdr, a, b), refuseB, 2, len(hdr) + len(a)},
		{"refused mid-log", cat(hdr, b, a), refuseB, 1, -1},
		{"blank last", cat(hdr, a, []byte("\n")), nil, 2, len(hdr) + len(a)},
		{"blank mid-log", cat(hdr, []byte("\n"), a), nil, 1, -1},
		{"short", cat(hdr, []byte("00000000 \n")), nil, 1, len(hdr)},
		{"bad header", cat(flip, a), nil, 0, -1},
		{"unterminated header", hdr[:len(hdr)-1], nil, 0, -1},
		{"refused header", cat(hdr, a), func(n int, _ []byte) bool { return n == 1 }, 0, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, clean, err := collect(tc.data, tc.refuse)
			if tc.clean < 0 {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("err %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil || clean != int64(tc.clean) || len(got) != tc.lines {
				t.Fatalf("kept %d lines, clean %d, err %v; want %d lines, clean %d", len(got), clean, err, tc.lines, tc.clean)
			}
		})
	}
}

// TestReadLongLine: a line far longer than the read buffer is read whole,
// and so is the line after it.
func TestReadLongLine(t *testing.T) {
	long := bytes.Repeat([]byte("0123456789"), 50_000)
	data := AppendLine(AppendLine(AppendLine(nil, []byte("hdr")), long), []byte("after"))
	got, clean, err := collect(data, nil)
	if err != nil || clean != int64(len(data)) || len(got) != 3 || !bytes.Equal(got[1], long) || string(got[2]) != "after" {
		t.Fatalf("kept %d lines, clean %d of %d, err %v", len(got), clean, len(data), err)
	}
}

// TestLog: a log is created with its header, takes fsynced appends, reopens
// with a torn tail truncated away, and refuses appends once closed.
func TestLog(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.log")
	l, err := Create(path, []byte("hdr"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"a", "b"} {
		if err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("c")); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := AppendLine(AppendLine(AppendLine(nil, []byte("hdr")), []byte("a")), []byte("b")); !bytes.Equal(whole, want) {
		t.Fatalf("log bytes %q, want %q", whole, want)
	}

	// A torn tail is truncated away and reported; appends continue there.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("0123")
	f.Close()
	var seen []string
	l2, cut, err := Open(path, nil, func(_ int, p []byte) error { seen = append(seen, string(p)); return nil })
	if err != nil || cut != 4 || strings.Join(seen, ",") != "hdr,a,b" {
		t.Fatalf("reopen: cut %d, saw %v, err %v", cut, seen, err)
	}
	if err := l2.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if got, _ := os.ReadFile(path); !bytes.Equal(got, AppendLine(whole, []byte("c"))) {
		t.Fatalf("after repair and append: %q", got)
	}

	// A missing file: created with the header when one is given, an I/O
	// error (not a refusal) when none is; an empty file without a header is
	// refused.
	fresh := filepath.Join(dir, "fresh.log")
	l3, cut, err := Open(fresh, []byte("hdr"), nil)
	if err != nil || cut != 0 {
		t.Fatalf("fresh log: cut %d, err %v", cut, err)
	}
	l3.Close()
	if got, _ := os.ReadFile(fresh); !bytes.Equal(got, AppendLine(nil, []byte("hdr"))) {
		t.Fatalf("fresh log holds %q", got)
	}
	accept := func(int, []byte) error { return nil }
	if _, _, err := Open(filepath.Join(dir, "missing.log"), nil, accept); err == nil || errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing log without a header: err %v, want an I/O error", err)
	}
	empty := filepath.Join(dir, "empty.log")
	os.WriteFile(empty, nil, 0o644)
	if _, _, err := Open(empty, nil, accept); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty log without a header: err %v, want ErrCorrupt", err)
	}
}

// FuzzFrame holds Read to the torn-tail rule on arbitrary bytes: it never
// panics, clean stays inside the input at a line boundary, and the accepted
// lines, framed again, read back identically and whole. fn refuses
// payloads that start with '!', so refusals are fuzzed too.
func FuzzFrame(f *testing.F) {
	whole := AppendLine(AppendLine(AppendLine(nil, []byte(`{"hdr":1}`)), []byte(`{"a":1}`)), []byte(`{"b":2}`))
	f.Add(whole)
	f.Add(whole[:len(whole)-1])
	f.Add(whole[:len(whole)-5])
	f.Add([]byte{})
	f.Add([]byte("\n"))
	f.Add(AppendLine(AppendLine(nil, []byte("h")), []byte("!refused")))
	f.Add(append(AppendLine(AppendLine(nil, []byte("h")), []byte("!refused")), whole...))
	f.Add([]byte("0x00abcd {}\n"))
	refuse := func(_ int, p []byte) bool { return p[0] == '!' }
	f.Fuzz(func(t *testing.T, data []byte) {
		got, clean, err := collect(data, refuse)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if clean < 0 || clean > int64(len(data)) || (clean > 0 && data[clean-1] != '\n') {
			t.Fatalf("clean %d is not a line boundary of the %d-byte input", clean, len(data))
		}
		var again []byte
		for _, p := range got {
			again = AppendLine(again, p)
		}
		if !bytes.Equal(again, data[:clean]) {
			t.Fatalf("accepted lines re-frame to %q, input prefix is %q", again, data[:clean])
		}
		got2, clean2, err := collect(again, refuse)
		if err != nil || clean2 != int64(len(again)) || len(got2) != len(got) {
			t.Fatalf("re-framed log: %d of %d lines, clean %d of %d, err %v", len(got2), len(got), clean2, len(again), err)
		}
		for i := range got {
			if !bytes.Equal(got[i], got2[i]) {
				t.Fatalf("line %d changed: %q -> %q", i+1, got[i], got2[i])
			}
		}
	})
}
