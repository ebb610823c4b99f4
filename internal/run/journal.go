package run

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"hotpotato/internal/frame"
)

// JournalVersion is the schema version of the journal header line. Version
// 2 framed every line with a CRC; a version 1 journal is refused.
const JournalVersion = 2

// journalName identifies the file type in the header line.
const journalName = "hotpotato-run"

// ErrBadJournal is returned when a journal file cannot be used: wrong
// header, another version, corruption before the final line, or a label
// that does not match the grid being executed (resuming a sweep against the
// journal of a different one would silently mix results).
var ErrBadJournal = errors.New("run: journal does not match this run")

// header is the first line of every journal file.
type header struct {
	Journal string `json:"journal"`
	Version int    `json:"version"`
	// Label identifies the grid (binary name plus the flags that shape it);
	// resume refuses a journal whose label differs.
	Label string `json:"label"`
}

// Entry is one journal line: the fate of one cell.
type Entry struct {
	Key      string `json:"key"`
	Status   string `json:"status"` // StatusOK or StatusFailed
	Attempts int    `json:"attempts"`
	// ElapsedMS is the wall time of the final attempt, in milliseconds.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Result is the cell's opaque payload (present for StatusOK).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the last attempt's failure (present for StatusFailed).
	Error string `json:"error,omitempty"`
}

// Cell fates recorded in the journal.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

// Journal is an append-only record of completed cells. Every Record is
// written and fsynced as one line, so a crash or kill at any point loses at
// most the cells still in flight — never a finished one. All methods are
// safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	log  *frame.Log
	done map[string]Entry
}

// OpenJournal creates the journal at path (truncating any previous file)
// and writes the header. label ties the journal to one specific grid.
func OpenJournal(path, label string) (*Journal, error) {
	// A header of strings and ints always marshals.
	hdr, _ := json.Marshal(header{Journal: journalName, Version: JournalVersion, Label: label})
	log, err := frame.Create(path, hdr)
	if err != nil {
		return nil, fmt.Errorf("run: journal: %w", err)
	}
	return &Journal{log: log, done: make(map[string]Entry)}, nil
}

// ResumeJournal opens an existing journal for appending, after loading the
// fates it already records. The header must match label (pass "" to skip
// the check). A torn final line — the signature of a hard kill mid-write —
// is truncated away; a bad line elsewhere is corruption and fails.
func ResumeJournal(path, label string) (*Journal, error) {
	j := &Journal{done: make(map[string]Entry)}
	log, _, err := frame.Open(path, nil, func(n int, payload []byte) error {
		if n == 1 {
			var h header
			if json.Unmarshal(payload, &h) != nil || h.Journal != journalName {
				return errors.New("not a run journal")
			}
			if h.Version != JournalVersion {
				return fmt.Errorf("journal version %d, this build reads %d", h.Version, JournalVersion)
			}
			if label != "" && h.Label != label {
				return fmt.Errorf("journal records %q, this run is %q", h.Label, label)
			}
			return nil
		}
		var e Entry
		if json.Unmarshal(payload, &e) != nil || e.Key == "" {
			return errors.New("bad entry")
		}
		j.done[e.Key] = e // later entries win
		return nil
	})
	if errors.Is(err, frame.ErrCorrupt) {
		return nil, fmt.Errorf("%w: %s: %w", ErrBadJournal, path, err)
	}
	if err != nil {
		return nil, fmt.Errorf("run: journal: %w", err)
	}
	j.log = log
	return j, nil
}

// Completed returns the recorded successful fate of a cell, if any.
func (j *Journal) Completed(key string) (Entry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.done[key]
	if !ok || e.Status != StatusOK {
		return Entry{}, false
	}
	return e, true
}

// Record appends one entry and forces it to stable storage before
// returning, so a recorded cell survives any subsequent crash.
func (j *Journal) Record(e Entry) error {
	buf, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("run: journal: %w", err)
	}
	j.mu.Lock()
	j.done[e.Key] = e
	j.mu.Unlock()
	if err := j.log.Append(buf); err != nil {
		return fmt.Errorf("run: journal: %w", err)
	}
	return nil
}

// Close releases the journal file.
func (j *Journal) Close() error { return j.log.Close() }
