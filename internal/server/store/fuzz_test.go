package store

import (
	"bytes"
	"encoding/json"
	"testing"
)

// validWAL builds a small well-formed WAL for the seed corpus.
func validWAL() []byte {
	var buf bytes.Buffer
	buf.Write(encodeLine([]byte(`{"wal":"hotpotatod-jobs","version":1}`)))
	for i, r := range []Record{
		{Job: "j000001", Op: OpAccepted, Tenant: "t", Spec: json.RawMessage(`{"k":8}`)},
		{Job: "j000001", Op: OpRunning, Attempt: 1},
		{Job: "j000001", Op: OpDone, Result: json.RawMessage(`{"Steps":3}`)},
	} {
		r.Seq = int64(i + 1)
		r.UnixMS = 1700000000000
		payload, _ := json.Marshal(r)
		buf.Write(encodeLine(payload))
	}
	return buf.Bytes()
}

// FuzzWAL feeds arbitrary bytes to the WAL decoder: it must never panic,
// and whenever it accepts records they must obey the decoder's contract —
// clean offset within the input, strictly increasing sequence numbers, and
// a re-encode of the accepted prefix must decode to the same records.
func FuzzWAL(f *testing.F) {
	whole := validWAL()
	f.Add(whole)
	f.Add(whole[:len(whole)-1])  // torn newline
	f.Add(whole[:len(whole)-7])  // torn payload
	f.Add([]byte{})              // empty
	f.Add([]byte("00000000 \n")) // framed empty payload
	corrupt := bytes.Clone(whole)
	corrupt[len(corrupt)/2] ^= 0x20
	f.Add(corrupt)
	// CRC fields a loose parser would read but no writer emits.
	f.Add([]byte(" 000abcd {}\n"))
	f.Add([]byte("abcd     {}\n"))
	f.Add([]byte("0x00abcd {}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, err := DecodeAll(data)
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		if clean < 0 || clean > int64(len(data)) {
			t.Fatalf("clean offset %d outside input of %d bytes", clean, len(data))
		}
		last := int64(0)
		for _, r := range recs {
			if r.Seq <= last {
				t.Fatalf("accepted non-increasing seq %d after %d", r.Seq, last)
			}
			last = r.Seq
			if r.Job == "" || r.Op == "" {
				t.Fatalf("accepted record without job/op: %+v", r)
			}
		}
		// Round-trip: re-encoding what was accepted must decode identically.
		var buf bytes.Buffer
		buf.Write(encodeLine([]byte(`{"wal":"hotpotatod-jobs","version":1}`)))
		for _, r := range recs {
			payload, err := json.Marshal(r)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			buf.Write(encodeLine(payload))
		}
		recs2, clean2, err := DecodeAll(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded WAL rejected: %v", err)
		}
		if clean2 != int64(buf.Len()) {
			t.Fatalf("re-encoded WAL torn at %d of %d", clean2, buf.Len())
		}
		if len(recs2) != len(recs) {
			t.Fatalf("round trip kept %d of %d records", len(recs2), len(recs))
		}
		for i := range recs {
			a, _ := json.Marshal(recs[i])
			b, _ := json.Marshal(recs2[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("record %d changed in round trip:\n%s\n%s", i, a, b)
			}
		}
		// Folding must also be total (no panics) on whatever was accepted.
		fold(recs)
	})
}
