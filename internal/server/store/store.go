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
// The WAL is an internal/frame line log: line 1 is a JSON header naming the
// file type and version, every later line one JSON Record. The framing, the
// fsync and the torn-tail rule (a bad final line is chopped off on Open, a
// bad line followed by more refuses to load) are internal/frame's; this
// package adds the header check, the rising sequence numbers and the fold.
// DecodeAll never panics on arbitrary bytes (see FuzzWAL).
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"hotpotato/internal/frame"
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
	mu  sync.Mutex // orders sequence numbers with their lines
	log *frame.Log
	seq int64
}

// replay is the WAL's schema, applied one line at a time: line 1 must be
// the header, every later line a record whose sequence number rises.
type replay struct {
	recs    []Record
	lastSeq int64
}

func (r *replay) line(n int, payload []byte) error {
	if n == 1 {
		var h header
		if json.Unmarshal(payload, &h) != nil || h.WAL != walName {
			return errors.New("missing or wrong header")
		}
		if h.Version > Version {
			return fmt.Errorf("version %d, this build reads %d", h.Version, Version)
		}
		return nil
	}
	var rec Record
	if json.Unmarshal(payload, &rec) != nil || rec.Job == "" || rec.Op == "" {
		return errors.New("bad record json")
	}
	if rec.Seq <= r.lastSeq {
		return fmt.Errorf("sequence went backwards (%d after %d)", rec.Seq, r.lastSeq)
	}
	r.lastSeq = rec.Seq
	r.recs = append(r.recs, rec)
	return nil
}

// DecodeAll parses WAL bytes into records under internal/frame's torn-tail
// rule: clean is the byte offset where a tolerated torn final line begins
// (== len(data) when the file is whole). Corruption anywhere else returns
// an error wrapping ErrBadWAL. It never panics, whatever the input (FuzzWAL).
func DecodeAll(data []byte) (recs []Record, clean int64, err error) {
	var r replay
	if clean, err = frame.Read(bytes.NewReader(data), r.line); err != nil {
		return nil, 0, fmt.Errorf("%w: %w", ErrBadWAL, err)
	}
	return r.recs, clean, nil
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
	// A header of strings and ints always marshals.
	hdr, _ := json.Marshal(header{WAL: walName, Version: Version})
	var r replay
	log, cut, err := frame.Open(path, hdr, r.line)
	if errors.Is(err, frame.ErrCorrupt) {
		return nil, nil, fmt.Errorf("%w: %s: %w", ErrBadWAL, path, err)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	rec := fold(r.recs)
	rec.Truncated = cut
	return &Store{log: log, seq: r.lastSeq}, rec, nil
}

// Append stamps the record (sequence number, timestamp), writes it as one
// framed line, and forces it to stable storage before returning. A nil
// error means the transition survives any subsequent crash.
func (s *Store) Append(r Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	r.Seq = s.seq
	if r.UnixMS == 0 {
		r.UnixMS = time.Now().UnixMilli()
	}
	payload, err := json.Marshal(r)
	if err == nil {
		err = s.log.Append(payload)
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close releases the WAL file. Appends after Close fail — which is exactly
// the behavior the chaos harness leans on to simulate a crash: close the
// WAL, and everything the server tries to record afterwards is lost, like
// the page cache of a kill -9'd process.
func (s *Store) Close() error { return s.log.Close() }
