// Package policylab is the decision-analysis layer over the simulator: it
// records *why* runs unfold the way they do and asks what would have
// happened otherwise. Three tools:
//
//   - Conflict tracing (Recorder, Writer, ReadTrace): an opt-in tap on the
//     engine's sim.ConflictObserver hook that captures every routing
//     conflict — the contenders, the decision features a priority rule
//     could have used, who won, who was deflected, and the node's
//     contribution to the distance potential — ring-buffered in memory and
//     spillable to a conflict trace: an internal/frame line log
//     (TraceVersion 2) whose line 1 is a TraceHeader and every later line
//     one ConflictRecord. A version 1 trace, whose header line had no CRC
//     frame, is refused with ErrBadTrace.
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
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"hotpotato/internal/frame"
	"hotpotato/internal/sim"
)

// TraceVersion is the schema version written into the trace header line.
// Version 2 framed the header line too; a version 1 trace is refused.
const TraceVersion = 2

// traceName identifies the file type in the header line.
const traceName = "hotpotato-conflicts"

// ErrBadTrace is returned when a conflict-trace file cannot be used: wrong
// header, another version, or corruption before the final line.
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

// Writer streams conflict records as internal/frame lines, one record per
// line: a torn final line from a crashed or interrupted run is detectable
// and everything before it stays readable. The stream is not fsynced; the
// caller owns the file.
type Writer struct {
	w    *bufio.Writer
	line []byte
}

// NewWriter writes the header line and returns a Writer. The caller owns w
// (call Writer.Flush before closing it).
func NewWriter(w io.Writer, hdr TraceHeader) (*Writer, error) {
	hdr.Trace = traceName
	hdr.Version = TraceVersion
	payload, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("policylab: trace header: %w", err)
	}
	tw := &Writer{w: bufio.NewWriter(w)}
	if _, err := tw.w.Write(frame.AppendLine(nil, payload)); err != nil {
		return nil, fmt.Errorf("policylab: trace write: %w", err)
	}
	return tw, nil
}

// Write appends one framed record.
func (tw *Writer) Write(rec *sim.ConflictRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("policylab: trace encode: %w", err)
	}
	tw.line = frame.AppendLine(tw.line[:0], payload)
	if _, err := tw.w.Write(tw.line); err != nil {
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

// ReadTrace decodes a conflict-trace stream under internal/frame's torn-tail
// rule: a torn final line — the signature of a crash or an interrupt
// mid-write — is dropped silently; a bad line followed by more records is
// real corruption and returns an error wrapping ErrBadTrace, as does a
// header whose version is anything but TraceVersion. Never panics on
// arbitrary input (see FuzzReadTrace).
func ReadTrace(r io.Reader) (TraceHeader, []sim.ConflictRecord, error) {
	var hdr TraceHeader
	var recs []sim.ConflictRecord
	hdrOK := false
	_, err := frame.Read(r, func(n int, payload []byte) error {
		if n == 1 {
			if json.Unmarshal(payload, &hdr) != nil || hdr.Trace != traceName {
				return errors.New("not a conflict trace")
			}
			if hdr.Version != TraceVersion {
				return fmt.Errorf("trace version %d, this build reads %d", hdr.Version, TraceVersion)
			}
			hdrOK = true
			return nil
		}
		var rec sim.ConflictRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	switch {
	case err == nil:
		return hdr, recs, nil
	case !errors.Is(err, frame.ErrCorrupt):
		return hdr, nil, fmt.Errorf("policylab: %w", err)
	case !hdrOK:
		return hdr, nil, fmt.Errorf("%w: bad header line: %w", ErrBadTrace, err)
	default:
		return hdr, nil, fmt.Errorf("%w: corrupt record: %w", ErrBadTrace, err)
	}
}
