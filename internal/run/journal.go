package run

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// JournalVersion is the schema version of the journal header line.
const JournalVersion = 1

// ErrBadJournal is returned when a journal file cannot be used: wrong
// header, version from a future build, or a label that does not match the
// grid being executed (resuming a sweep against the journal of a different
// one would silently mix results).
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

// Journal is an append-only JSONL record of completed cells. Every Record
// is written, flushed and fsynced as one line, so a crash or kill at any
// point loses at most the cells still in flight — never a finished one.
// All methods are safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	done map[string]Entry
}

// OpenJournal creates the journal at path (truncating any previous file)
// and writes the header. label ties the journal to one specific grid.
func OpenJournal(path, label string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("run: journal: %w", err)
	}
	j := &Journal{f: f, done: make(map[string]Entry)}
	hdr, err := json.Marshal(header{Journal: "hotpotato-run", Version: JournalVersion, Label: label})
	if err != nil {
		f.Close()
		return nil, err
	}
	if err := j.writeLine(hdr); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// ResumeJournal opens an existing journal for appending, after loading the
// fates it already records. The header must match label (pass "" to skip
// the check). A torn final line — the signature of a hard kill mid-write:
// unparseable, or complete but for its newline — is tolerated and ignored;
// torn lines elsewhere are corruption and fail.
func ResumeJournal(path, label string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("run: journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("run: journal: %w", err)
	}
	j := &Journal{f: f, done: make(map[string]Entry)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	lineNo := 0
	var torn int        // line number of a previously seen unparseable line
	var tornStart int64 // byte offset where the torn line begins
	var offset int64    // byte offset of the line about to be processed
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		lineStart := offset
		offset += int64(len(line)) + 1 // every line we write ends in '\n'
		// A line the file ends inside of was cut before its newline. Even
		// when it parses, appending after it would fuse two objects onto
		// one line, so it is torn like any other partial write.
		unterminated := offset > st.Size()
		if len(line) == 0 {
			continue
		}
		if torn != 0 {
			f.Close()
			return nil, fmt.Errorf("%w: %s: corrupt line %d followed by more entries", ErrBadJournal, path, torn)
		}
		if lineNo == 1 {
			var h header
			if err := json.Unmarshal(line, &h); err != nil || h.Journal != "hotpotato-run" || unterminated {
				f.Close()
				return nil, fmt.Errorf("%w: %s is not a run journal", ErrBadJournal, path)
			}
			if h.Version > JournalVersion {
				f.Close()
				return nil, fmt.Errorf("%w: %s: journal version %d, this build reads %d", ErrBadJournal, path, h.Version, JournalVersion)
			}
			if label != "" && h.Label != label {
				f.Close()
				return nil, fmt.Errorf("%w: %s records %q, this run is %q", ErrBadJournal, path, h.Label, label)
			}
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil || e.Key == "" || unterminated {
			torn, tornStart = lineNo, lineStart // tolerated iff nothing follows
			continue
		}
		j.done[e.Key] = e // later entries win
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("run: journal %s: %w", path, err)
	}
	if lineNo == 0 {
		f.Close()
		return nil, fmt.Errorf("%w: %s is empty", ErrBadJournal, path)
	}
	if torn != 0 {
		// Chop the torn tail so the file is clean JSONL again and the next
		// entry starts where the interrupted write began.
		if err := f.Truncate(tornStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("run: journal %s: %w", path, err)
		}
		if _, err := f.Seek(tornStart, io.SeekStart); err != nil {
			f.Close()
			return nil, fmt.Errorf("run: journal %s: %w", path, err)
		}
		return j, nil
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("run: journal %s: %w", path, err)
	}
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
	defer j.mu.Unlock()
	j.done[e.Key] = e
	return j.writeLine(buf)
}

// writeLine appends buf + newline and fsyncs. Callers hold j.mu (or have
// exclusive access during Open).
func (j *Journal) writeLine(buf []byte) error {
	if _, err := j.f.Write(append(buf, '\n')); err != nil {
		return fmt.Errorf("run: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("run: journal sync: %w", err)
	}
	return nil
}

// Close releases the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
