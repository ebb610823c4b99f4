// Package policylab is the decision-analysis layer over the simulator: it
// records *why* runs unfold the way they do and asks what would have
// happened otherwise. Three tools:
//
//   - Conflict tracing (Recorder, Writer, ReadTrace): an opt-in tap on the
//     engine's sim.ConflictObserver hook that captures every routing
//     conflict — the contenders, the decision features a priority rule
//     could have used, who won, who was deflected, and the node's
//     contribution to the distance potential — ring-buffered in memory and
//     spillable to a CRC-framed JSONL stream.
//   - Counterfactual replay (Replay): re-run a recorded window from a
//     checkpoint under K alternative priority orders and score the
//     divergence (deliveries, deflections, potential trajectory).
//   - Policy search (subpackage search): random + evolutionary search over
//     the parameterized weighted policy family, with a verification pass
//     that checks whether the paper's potential-decrease property still
//     holds for what the search finds.
package policylab

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"hotpotato/internal/codec"
	"hotpotato/internal/sim"
)

// TraceVersion is the schema version written into the trace header line.
const TraceVersion = 1

// traceName identifies the file type in the header line.
const traceName = "hotpotato-conflicts"

// ErrBadTrace is returned when a conflict-trace file cannot be used: wrong
// header, a version from a future build, or corruption before the final
// line.
var ErrBadTrace = errors.New("policylab: not a usable conflict trace")

// TraceHeader is the first line of every conflict-trace file: the run
// configuration the records were captured under, so a trace is
// self-describing.
type TraceHeader struct {
	Trace   string `json:"trace"`
	Version int    `json:"version"`
	Dim     int    `json:"dim"`
	Side    int    `json:"side"`
	Wrap    bool   `json:"wrap,omitempty"`
	Policy  string `json:"policy"`
	Seed    int64  `json:"seed"`
}

// Writer streams conflict records to a CRC-framed JSONL file, one record
// per line: an 8-hex-digit CRC-32 (IEEE) of the JSON payload, one space,
// the payload — the same hostile-input-tolerant framing as the job-store
// WAL and internal/run's journal, so a torn final line from a crashed or
// interrupted run is detectable and everything before it stays readable.
type Writer struct {
	w   *bufio.Writer
	buf bytes.Buffer
}

// NewWriter writes the header line and returns a Writer. The caller owns w
// (call Writer.Flush before closing it).
func NewWriter(w io.Writer, hdr TraceHeader) (*Writer, error) {
	hdr.Trace = traceName
	hdr.Version = TraceVersion
	line, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("policylab: trace header: %w", err)
	}
	tw := &Writer{w: bufio.NewWriter(w)}
	if _, err := tw.w.Write(append(line, '\n')); err != nil {
		return nil, fmt.Errorf("policylab: trace write: %w", err)
	}
	return tw, nil
}

// Write appends one framed record.
func (tw *Writer) Write(rec *sim.ConflictRecord) error {
	tw.buf.Reset()
	enc := json.NewEncoder(&tw.buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(rec); err != nil {
		return fmt.Errorf("policylab: trace encode: %w", err)
	}
	payload := bytes.TrimRight(tw.buf.Bytes(), "\n")
	if _, err := fmt.Fprintf(tw.w, "%08x %s\n", crc32.ChecksumIEEE(payload), payload); err != nil {
		return fmt.Errorf("policylab: trace write: %w", err)
	}
	return nil
}

// Flush drains the internal buffer to the underlying writer.
func (tw *Writer) Flush() error {
	if err := tw.w.Flush(); err != nil {
		return fmt.Errorf("policylab: trace flush: %w", err)
	}
	return nil
}

// ReadTrace decodes a conflict-trace stream. A torn final line — the
// signature of a crash or an interrupt mid-write — is chopped off silently;
// a bad line followed by more records is real corruption and returns an
// error wrapping ErrBadTrace. Never panics on arbitrary input (see
// FuzzReadTrace).
func ReadTrace(r io.Reader) (TraceHeader, []sim.ConflictRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var hdr TraceHeader
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return hdr, nil, fmt.Errorf("policylab: read trace: %w", err)
		}
		return hdr, nil, fmt.Errorf("%w: empty file", ErrBadTrace)
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Trace != traceName {
		return hdr, nil, fmt.Errorf("%w: bad header line", ErrBadTrace)
	}
	if hdr.Version != TraceVersion {
		return hdr, nil, fmt.Errorf("%w: trace version %d, this build reads %d", ErrBadTrace, hdr.Version, TraceVersion)
	}
	var recs []sim.ConflictRecord
	bad := -1 // line number of the first undecodable line, if any
	line := 1
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		if bad >= 0 {
			// A decodable-or-not line after a bad one means the bad line was
			// not a torn tail: refuse the file.
			return hdr, nil, fmt.Errorf("%w: corrupt record at line %d", ErrBadTrace, bad)
		}
		rec, ok := decodeLine(raw)
		if !ok {
			bad = line
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, fmt.Errorf("policylab: read trace: %w", err)
	}
	return hdr, recs, nil
}

// decodeLine parses one "crc payload" record line and verifies the CRC.
func decodeLine(raw []byte) (sim.ConflictRecord, bool) {
	var rec sim.ConflictRecord
	if len(raw) < 10 || raw[8] != ' ' {
		return rec, false
	}
	want, ok := codec.Hex32(raw[:8])
	if !ok {
		return rec, false
	}
	payload := raw[9:]
	if crc32.ChecksumIEEE(payload) != want {
		return rec, false
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, false
	}
	return rec, true
}
