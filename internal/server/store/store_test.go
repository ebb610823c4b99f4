package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hotpotato/internal/frame"
)

// encodeLine frames one WAL line.
func encodeLine(payload []byte) []byte { return frame.AppendLine(nil, payload) }

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

// TestOpensVersion1Fixture: testdata/v1.wal was written by the store before
// its framing moved into internal/frame. It must fold to the Recovery it
// folded to then, re-frame byte for byte, and take appends after it — the
// WAL format did not move.
func TestOpensVersion1Fixture(t *testing.T) {
	orig, err := os.ReadFile(filepath.Join("testdata", "v1.wal"))
	if err != nil {
		t.Fatal(err)
	}
	recs, clean, err := DecodeAll(orig)
	if err != nil || clean != int64(len(orig)) {
		t.Fatalf("DecodeAll: clean %d of %d, err %v", clean, len(orig), err)
	}
	reframed := encodeLine([]byte(`{"wal":"hotpotatod-jobs","version":1}`))
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		reframed = frame.AppendLine(reframed, payload)
	}
	if !bytes.Equal(reframed, orig) {
		t.Fatalf("re-framed WAL differs from the fixture:\n%s\n%s", reframed, orig)
	}

	path := filepath.Join(t.TempDir(), "jobs.wal")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	s, rec := openT(t, path)
	spec := json.RawMessage(`{"side":8,"k":48,"seed":3}`)
	want := &Recovery{Jobs: []*JobRecord{
		{ID: "j000001", Tenant: "acme", Spec: spec, Op: OpDone, Starts: 1,
			Result: json.RawMessage(`{"Steps":41,"Delivered":48}`), FinalHash: 0x9e3779b97f4a7c15},
		{ID: "j000002", Tenant: "zeta", Spec: spec, Op: OpFailed, Starts: 1, Error: "engine: boom"},
		{ID: "j000003", Tenant: "acme", Spec: spec, Op: OpCheckpointed, Starts: 1,
			Checkpoint: "ckpt/j000003.hpck", Result: json.RawMessage(`{"Steps":20}`)},
		{ID: "j000004", Tenant: "default", Spec: spec, Op: OpRunning, Starts: 2},
		{ID: "j000005", Tenant: "default", Spec: spec, Op: OpQuarantined, Starts: 3,
			Error: "started 3 times without finishing"},
		{ID: "j000006", Tenant: "zeta", Spec: spec, Op: OpAccepted},
	}}
	if !reflect.DeepEqual(rec, want) {
		t.Fatalf("fixture folded to\n%+v\nwant\n%+v", rec, want)
	}
	if err := s.Append(Record{Job: "j000006", Op: OpRunning, Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, orig) {
		t.Fatal("append rewrote the fixture's bytes")
	}
	s2, rec2 := openT(t, path)
	s2.Close()
	if j := rec2.Job("j000006"); j.Op != OpRunning || j.Starts != 1 {
		t.Fatalf("appended record folded to %+v", j)
	}
	all, _, err := DecodeAll(data)
	if err != nil || all[len(all)-1].Seq != 20 {
		t.Fatalf("append after the fixture: err %v, last record %+v", err, all[len(all)-1])
	}
}

// TestDecodeLineRejectsLooseCRC: a WAL line's CRC field is exactly eight
// lowercase hex digits. A loose parser such as fmt.Sscanf's %08x also takes
// the field space-padded (" 000abcd") or left-aligned ("abcd    "), and
// reads "0x00abcd" as 0. The record's CRC-32 is below 1<<16, so each loose
// rendering would read back as the right value; mid-file, DecodeAll must
// refuse it as corruption.
func TestDecodeLineRejectsLooseCRC(t *testing.T) {
	var payload []byte
	var crc uint32
	for i := 0; payload == nil; i++ {
		p, err := json.Marshal(Record{Seq: 1, Job: fmt.Sprintf("j%06d", i), Op: OpAccepted})
		if err != nil {
			t.Fatal(err)
		}
		if c := crc32.ChecksumIEEE(p); c < 1<<16 {
			payload, crc = p, c
		}
	}
	hdr, _ := json.Marshal(header{WAL: walName, Version: Version})
	next, _ := json.Marshal(Record{Seq: 2, Job: "j999999", Op: OpAccepted})
	wal := func(field string) []byte {
		data := encodeLine(hdr)
		data = append(data, field+" "...)
		data = append(data, payload...)
		return append(append(data, '\n'), encodeLine(next)...)
	}
	recs, _, err := DecodeAll(wal(fmt.Sprintf("%08x", crc)))
	if err != nil || len(recs) != 2 || recs[0].Seq != 1 {
		t.Fatalf("canonical line: %+v, %v", recs, err)
	}
	for _, field := range []string{fmt.Sprintf(" %07x", crc), fmt.Sprintf("%-8x", crc), fmt.Sprintf("0x%06x", crc)} {
		if _, _, err := DecodeAll(wal(field)); !errors.Is(err, ErrBadWAL) {
			t.Errorf("CRC field %q: err %v, want ErrBadWAL", field, err)
		}
	}
}
