package policylab

import (
	"bytes"
	"fmt"
	"testing"

	"hotpotato/internal/frame"
)

// FuzzReadTrace: the trace decoder must never panic on arbitrary input, and
// re-encoding whatever it accepts must decode back to the same records
// (write/read inverse on the accepted set).
func FuzzReadTrace(f *testing.F) {
	// Seed with a well-formed trace, a torn one, and assorted junk.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, TraceHeader{Dim: 2, Side: 8, Policy: "restricted-priority", Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec := mkRecord(i, i+4)
		if err := w.Write(&rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	header := func(version int) []byte {
		return frame.AppendLine(nil, fmt.Appendf(nil, `{"trace":"hotpotato-conflicts","version":%d}`, version))
	}
	f.Add(full)
	f.Add(full[:len(full)-7])
	f.Add(header(TraceVersion))
	f.Add(header(99))
	f.Add(frame.AppendLine(frame.AppendLine(nil, []byte("not json")), []byte("{}")))
	f.Add([]byte{})
	f.Add(append(header(TraceVersion), "deadbeef {\"t\":1}\n"...))
	// CRC fields a loose parser would read but no writer emits.
	for _, field := range []string{" 000abcd", "abcd    ", "0x00abcd"} {
		f.Add(append(header(TraceVersion), field+" {\"t\":1}\n"...))
	}
	// A version 1 trace: its header line had no frame.
	f.Add(append([]byte("{\"trace\":\"hotpotato-conflicts\",\"version\":1}\n"), full[bytes.IndexByte(full, '\n')+1:]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		hdr, recs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Round-trip what was accepted.
		var out bytes.Buffer
		w, err := NewWriter(&out, hdr)
		if err != nil {
			t.Fatalf("accepted header %+v but cannot re-encode: %v", hdr, err)
		}
		for i := range recs {
			if err := w.Write(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		hdr2, recs2, err := ReadTrace(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if hdr2 != hdr {
			t.Fatalf("header changed over round trip: %+v != %+v", hdr2, hdr)
		}
		if len(recs2) != len(recs) {
			t.Fatalf("record count changed over round trip: %d != %d", len(recs2), len(recs))
		}
	})
}
