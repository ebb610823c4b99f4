package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func openT(t *testing.T, path string) (*Store, *Recovery) {
	t.Helper()
	s, rec, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return s, rec
}

// TestRoundTrip writes a full lifecycle and replays it.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	s, rec := openT(t, path)
	if len(rec.Jobs) != 0 {
		t.Fatalf("fresh WAL recovered %d jobs", len(rec.Jobs))
	}
	spec := json.RawMessage(`{"side":4,"k":8}`)
	result := json.RawMessage(`{"Steps":7}`)
	for _, r := range []Record{
		{Job: "j000001", Op: OpAccepted, Tenant: "acme", Spec: spec},
		{Job: "j000002", Op: OpAccepted, Tenant: "zeta", Spec: spec},
		{Job: "j000001", Op: OpRunning, Attempt: 1},
		{Job: "j000001", Op: OpDone, Result: result},
		{Job: "j000002", Op: OpRunning, Attempt: 1},
	} {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2 := openT(t, path)
	defer s2.Close()
	if len(rec2.Jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(rec2.Jobs))
	}
	j1, j2 := rec2.Job("j000001"), rec2.Job("j000002")
	if j1 == nil || j1.Op != OpDone || j1.Pending() || string(j1.Result) != string(result) {
		t.Errorf("j000001 folded to %+v, want done with result", j1)
	}
	if j1.Tenant != "acme" || string(j1.Spec) != string(spec) {
		t.Errorf("j000001 lost tenant/spec: %+v", j1)
	}
	if j2 == nil || j2.Op != OpRunning || !j2.Pending() || j2.Starts != 1 {
		t.Errorf("j000002 folded to %+v, want pending with 1 start", j2)
	}
	if got := rec2.Pending(); len(got) != 1 || got[0].ID != "j000002" {
		t.Errorf("Pending() = %v, want [j000002]", got)
	}

	// Appending after reopen continues the sequence.
	if err := s2.Append(Record{Job: "j000002", Op: OpDone, Result: result}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := DecodeAll(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("sequence not increasing at %d: %+v", i, recs)
		}
	}
}

// TestTornTailRepair truncates the file mid-line at several cut points and
// expects Open to chop the tail and keep every whole record.
func TestTornTailRepair(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.wal")
	s, _ := openT(t, base)
	for i, op := range []Op{OpAccepted, OpRunning, OpDone} {
		if err := s.Append(Record{Job: "j000001", Op: op, Attempt: i}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	whole, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	// prevNL is where the final record's line begins; cuts land inside the
	// CRC field, inside the payload, and on the missing final newline.
	prevNL := strings.LastIndexByte(string(whole[:len(whole)-1]), '\n') + 1
	for _, cut := range []int{prevNL + 1, prevNL + 9, prevNL + 15, len(whole) - 1} {
		path := filepath.Join(dir, "torn.wal")
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, rec := openT(t, path)
		j := rec.Job("j000001")
		if j == nil {
			t.Fatalf("cut at %d lost the job entirely", cut)
		}
		// Whatever survived must be a prefix of the real history; the torn
		// record (done) is allowed to be missing, never half-applied.
		if j.Op == OpDone && cut < len(whole) {
			t.Fatalf("cut at %d kept the torn terminal record", cut)
		}
		// The repaired file must accept appends and reopen cleanly.
		if err := s2.Append(Record{Job: "j000001", Op: OpFailed, Error: "x"}); err != nil {
			t.Fatalf("cut at %d: append after repair: %v", cut, err)
		}
		s2.Close()
		s3, rec3 := openT(t, path)
		s3.Close()
		if got := rec3.Job("j000001").Op; got != OpFailed {
			t.Fatalf("cut at %d: reopen folded to %q, want failed", cut, got)
		}
		os.Remove(path)
	}
}

// TestCorruptionMidFileRefuses flips a byte in a non-final record.
func TestCorruptionMidFileRefuses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	s, _ := openT(t, path)
	for _, op := range []Op{OpAccepted, OpRunning, OpDone} {
		if err := s.Append(Record{Job: "j000001", Op: op}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); !errors.Is(err, ErrBadWAL) {
		t.Fatalf("mid-file corruption opened with err = %v, want ErrBadWAL", err)
	}
}

// TestHeaderValidation rejects non-WAL files and future versions.
func TestHeaderValidation(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"garbage":   "not a wal at all\n",
		"wrongtype": string(encodeLine([]byte(`{"wal":"something-else","version":1}`))),
		"future":    string(encodeLine([]byte(`{"wal":"hotpotatod-jobs","version":99}`))),
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(path); !errors.Is(err, ErrBadWAL) {
			t.Errorf("%s: err = %v, want ErrBadWAL", name, err)
		}
	}
}

// TestAppendAfterClose is the crash-simulation contract the chaos harness
// relies on: a closed store loses appends loudly, never silently.
func TestAppendAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	s, _ := openT(t, path)
	s.Close()
	if err := s.Append(Record{Job: "j1", Op: OpAccepted}); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestQuarantineEvidence folds repeated crash-interrupted starts.
func TestQuarantineEvidence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	s, _ := openT(t, path)
	s.Append(Record{Job: "j000001", Op: OpAccepted}) //nolint:errcheck
	for i := 1; i <= 3; i++ {
		s.Append(Record{Job: "j000001", Op: OpRunning, Attempt: i}) //nolint:errcheck
	}
	s.Close()
	_, rec := openT(t, path)
	if j := rec.Job("j000001"); j.Starts != 3 || !j.Pending() {
		t.Fatalf("folded %+v, want 3 starts pending", j)
	}
}

// smallCRCPayload returns a payload whose CRC-32 is below 1<<16, so that the
// padded and left-aligned renderings of its CRC field below read back, under
// a loose parser, as the right value.
func smallCRCPayload(t *testing.T) ([]byte, uint32) {
	t.Helper()
	for i := 0; i < 1<<22; i++ {
		p := fmt.Appendf(nil, `{"pad":%d}`, i)
		if c := crc32.ChecksumIEEE(p); c < 1<<16 {
			return p, c
		}
	}
	t.Fatal("no payload with a 16-bit CRC found")
	return nil, 0
}

// TestDecodeLineRejectsLooseCRC: the CRC field is exactly eight lowercase
// hex digits. fmt.Sscanf's %08x, which read it before, also took the field
// space-padded (" 000abcd") or left-aligned ("abcd    "), and read
// "0x00abcd" as 0.
func TestDecodeLineRejectsLooseCRC(t *testing.T) {
	payload, crc := smallCRCPayload(t)
	line := func(field string) []byte { return append([]byte(field+" "), payload...) }
	if got, err := decodeLine(line(fmt.Sprintf("%08x", crc))); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("canonical line: %q, %v", got, err)
	}
	for _, field := range []string{fmt.Sprintf(" %07x", crc), fmt.Sprintf("%-8x", crc), fmt.Sprintf("0x%06x", crc)} {
		if _, err := decodeLine(line(field)); err == nil {
			t.Errorf("CRC field %q accepted", field)
		}
	}
}
