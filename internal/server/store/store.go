// Package store is hotpotatod's durable job store: an fsynced, append-only
// write-ahead log of job lifecycle transitions. Every accepted job writes an
// "accepted" record before the client sees 202, every later transition
// (running, done, failed, checkpointed, quarantined) appends another record,
// and each append is flushed and fsynced before it returns — so the set of
// accepted jobs and their fates survives kill -9 at any instant.
//
// On restart, Open replays the log and folds it into one JobRecord per job:
// jobs whose last record is terminal are history, jobs stuck at accepted or
// running are the crash's survivors and must be re-enqueued (resuming from
// their last checkpoint if one exists — the checkpoint files themselves are
// internal/checkpoint's business, the WAL only records lifecycle).
//
// The line format is hostile-input-tolerant by construction: each line is
// an 8-hex-digit CRC-32 (IEEE) of the JSON payload, one space, the payload.
// A torn final line — the signature of a crash mid-write — is detected by
// its CRC or truncated JSON and chopped off on Open, exactly like
// internal/run's journal; a corrupt line *followed by more records* is real
// corruption and refuses to load. DecodeAll never panics on arbitrary
// bytes (see FuzzWAL).
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"time"

	"hotpotato/internal/codec"
)

// Version is the WAL schema version written into the header line.
const Version = 1

// walName identifies the file type in the header line.
const walName = "hotpotatod-jobs"

// ErrBadWAL is returned when a WAL file cannot be used: wrong header, a
// version from a future build, or corruption before the final line.
var ErrBadWAL = errors.New("store: not a usable job WAL")

// Op is one lifecycle transition type.
type Op string

// The job lifecycle: accepted -> running (one per attempt or per crash
// re-dispatch) -> exactly one terminal op.
const (
	// OpAccepted records admission; it carries the spec and tenant.
	OpAccepted Op = "accepted"
	// OpRunning records the start of one execution attempt.
	OpRunning Op = "running"
	// OpDone, OpFailed, OpCheckpointed and OpQuarantined are terminal.
	OpDone         Op = "done"
	OpFailed       Op = "failed"
	OpCheckpointed Op = "checkpointed"
	OpQuarantined  Op = "quarantined"
)

// Terminal reports whether the op ends a job's lifecycle.
func (o Op) Terminal() bool {
	return o == OpDone || o == OpFailed || o == OpCheckpointed || o == OpQuarantined
}

// header is the payload of the first WAL line.
type header struct {
	WAL     string `json:"wal"`
	Version int    `json:"version"`
}

// Record is one WAL line: a lifecycle transition of one job. The spec and
// result payloads are opaque JSON — the store neither interprets nor
// validates them, so the WAL schema survives job-spec evolution.
type Record struct {
	// Seq is the append sequence number, strictly increasing within a file.
	// Append assigns it; a caller-set value is overwritten.
	Seq int64 `json:"seq"`
	// Job is the job ID the transition belongs to.
	Job string `json:"job"`
	// Op is the transition type.
	Op Op `json:"op"`
	// Tenant is the admitting tenant (accepted records).
	Tenant string `json:"tenant,omitempty"`
	// Spec is the job spec as submitted (accepted records).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Attempt is the 1-based attempt number (running records).
	Attempt int `json:"attempt,omitempty"`
	// Checkpoint is the saved state path (checkpointed records).
	Checkpoint string `json:"checkpoint,omitempty"`
	// Result is the run summary (done and checkpointed records).
	Result json.RawMessage `json:"result,omitempty"`
	// FinalHash is the engine-state fingerprint at natural completion (done
	// records) — the value the chaos harness compares for bit-identity, so
	// it must survive restarts alongside the result.
	FinalHash uint64 `json:"final_hash,omitempty"`
	// Error is the failure message (failed and quarantined records).
	Error string `json:"error,omitempty"`
	// UnixMS is the transition's wall-clock time in Unix milliseconds.
	UnixMS int64 `json:"ts_ms,omitempty"`
}

// JobRecord is the folded recovery state of one job after replay.
type JobRecord struct {
	// ID, Tenant and Spec come from the accepted record.
	ID     string
	Tenant string
	Spec   json.RawMessage
	// Op is the job's last recorded transition; Pending() derives from it.
	Op Op
	// Starts counts running records — every execution the job ever began,
	// across attempts and daemon lifetimes. A high count with no terminal
	// record is the signature of a poison job that keeps killing its host.
	Starts int
	// Checkpoint, Result, FinalHash and Error are the latest recorded values.
	Checkpoint string
	Result     json.RawMessage
	FinalHash  uint64
	Error      string
}

// Pending reports whether the job was accepted but never reached a terminal
// state — the jobs a recovering server must re-enqueue.
func (j *JobRecord) Pending() bool { return !j.Op.Terminal() }

// Recovery is the outcome of replaying a WAL.
type Recovery struct {
	// Jobs holds one folded record per job, in acceptance order. Running or
	// checkpoint records for jobs with no accepted record are dropped (they
	// can only arise from a WAL truncated at the head, which Open rejects,
	// or hand-edited files).
	Jobs []*JobRecord
	// Truncated is the number of bytes of torn tail chopped off on Open.
	Truncated int64
}

// Pending returns the recovered jobs that still need execution.
func (r *Recovery) Pending() []*JobRecord {
	var out []*JobRecord
	for _, j := range r.Jobs {
		if j.Pending() {
			out = append(out, j)
		}
	}
	return out
}

// Job returns the folded record for id, or nil.
func (r *Recovery) Job(id string) *JobRecord {
	for _, j := range r.Jobs {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// Store is an open WAL. Append is safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	f      *os.File
	seq    int64
	closed bool
}

// encodeLine frames one payload: crc32 in fixed-width hex, space, payload.
func encodeLine(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+10)
	out = fmt.Appendf(out, "%08x ", crc32.ChecksumIEEE(payload))
	out = append(out, payload...)
	return append(out, '\n')
}

// decodeLine verifies one line's CRC frame and returns the payload.
func decodeLine(line []byte) ([]byte, error) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("short or unframed line")
	}
	want, ok := codec.Hex32(line[:8])
	if !ok {
		return nil, fmt.Errorf("bad crc field %q", line[:8])
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("crc mismatch: line says %08x, payload is %08x", want, got)
	}
	return payload, nil
}

// DecodeAll parses WAL bytes into records. It tolerates exactly one broken
// region: a torn tail, i.e. a final line that is incomplete, fails its CRC,
// or is unparseable — clean is the byte offset where that tail begins (==
// len(data) when the file is whole). Corruption anywhere else returns an
// error wrapping ErrBadWAL. It never panics, whatever the input (FuzzWAL).
func DecodeAll(data []byte) (recs []Record, clean int64, err error) {
	var offset int64
	lineNo := 0
	lastSeq := int64(0)
	for len(data) > 0 {
		lineNo++
		lineStart := offset
		nl := bytes.IndexByte(data, '\n')
		var line []byte
		complete := nl >= 0
		if complete {
			line = data[:nl]
			data = data[nl+1:]
			offset += int64(nl) + 1
		} else {
			line = data
			data = nil
			offset += int64(len(line))
		}
		payload, lineErr := decodeLine(line)
		var rec Record
		if lineErr == nil && !complete {
			// A line without its newline can pass the CRC check only if the
			// crash landed exactly between payload and '\n'; the record is
			// whole, but the file still needs its tail trimmed to stay
			// appendable, so treat it as torn anyway.
			lineErr = fmt.Errorf("unterminated final line")
		}
		if lineErr == nil {
			if lineNo == 1 {
				var h header
				if json.Unmarshal(payload, &h) != nil || h.WAL != walName {
					return nil, 0, fmt.Errorf("%w: missing or wrong header", ErrBadWAL)
				}
				if h.Version > Version {
					return nil, 0, fmt.Errorf("%w: version %d, this build reads %d", ErrBadWAL, h.Version, Version)
				}
				continue
			}
			if uerr := json.Unmarshal(payload, &rec); uerr != nil || rec.Job == "" || rec.Op == "" {
				lineErr = fmt.Errorf("bad record json")
			} else if rec.Seq <= lastSeq {
				lineErr = fmt.Errorf("sequence went backwards (%d after %d)", rec.Seq, lastSeq)
			}
		}
		if lineErr != nil {
			if lineNo == 1 {
				return nil, 0, fmt.Errorf("%w: bad header line: %v", ErrBadWAL, lineErr)
			}
			if len(data) > 0 {
				return nil, 0, fmt.Errorf("%w: corrupt line %d (%v) followed by more records", ErrBadWAL, lineNo, lineErr)
			}
			return recs, lineStart, nil // torn tail: tolerated
		}
		lastSeq = rec.Seq
		recs = append(recs, rec)
	}
	if lineNo == 0 {
		return nil, 0, fmt.Errorf("%w: empty file", ErrBadWAL)
	}
	return recs, offset, nil
}

// fold reduces a record stream to per-job recovery state.
func fold(recs []Record) *Recovery {
	rec := &Recovery{}
	byID := make(map[string]*JobRecord)
	for _, r := range recs {
		j := byID[r.Job]
		if j == nil {
			if r.Op != OpAccepted {
				continue // transition for a job this WAL never accepted
			}
			j = &JobRecord{ID: r.Job, Tenant: r.Tenant, Spec: r.Spec}
			byID[r.Job] = j
			rec.Jobs = append(rec.Jobs, j)
		}
		j.Op = r.Op
		switch r.Op {
		case OpRunning:
			j.Starts++
		case OpCheckpointed:
			j.Checkpoint = r.Checkpoint
			if r.Result != nil {
				j.Result = r.Result
			}
		case OpDone:
			j.Result = r.Result
			j.FinalHash = r.FinalHash
		case OpFailed, OpQuarantined:
			j.Error = r.Error
		}
	}
	return rec
}

// Open opens (or creates) the WAL at path and replays it. A torn final
// line is truncated away; any other corruption fails with ErrBadWAL. The
// returned Recovery reflects every job the file records.
func Open(path string) (*Store, *Recovery, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{f: f}
	if len(data) == 0 { // fresh file: write the header
		hdr, err := json.Marshal(header{WAL: walName, Version: Version})
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := s.writeLine(hdr); err != nil {
			f.Close()
			return nil, nil, err
		}
		return s, &Recovery{}, nil
	}
	recs, clean, err := DecodeAll(data)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	if clean < int64(len(data)) {
		if err := f.Truncate(clean); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("store: repairing torn tail of %s: %w", path, err)
		}
	}
	if _, err := f.Seek(clean, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	rec := fold(recs)
	rec.Truncated = int64(len(data)) - clean
	if n := len(recs); n > 0 {
		s.seq = recs[n-1].Seq
	}
	return s, rec, nil
}

// Append stamps the record (sequence number, timestamp), writes it as one
// framed line, and forces it to stable storage before returning. A nil
// error means the transition survives any subsequent crash.
func (s *Store) Append(r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: appending to a closed WAL")
	}
	s.seq++
	r.Seq = s.seq
	if r.UnixMS == 0 {
		r.UnixMS = time.Now().UnixMilli()
	}
	payload, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.writeLine(payload)
}

// writeLine appends one framed line and fsyncs. Callers hold s.mu (or have
// exclusive access during Open).
func (s *Store) writeLine(payload []byte) error {
	if _, err := s.f.Write(encodeLine(payload)); err != nil {
		return fmt.Errorf("store: wal write: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: wal sync: %w", err)
	}
	return nil
}

// Close releases the WAL file. Appends after Close fail — which is exactly
// the behavior the chaos harness leans on to simulate a crash: close the
// WAL, and everything the server tries to record afterwards is lost, like
// the page cache of a kill -9'd process.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.f.Close()
}
