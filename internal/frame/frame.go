// Package frame is the one framer for the repository's CRC line logs: the
// job WAL (internal/server/store), the grid journal (internal/run) and the
// conflict trace (internal/policylab). Each caller keeps only its schema —
// the JSON it puts in a payload and what it accepts back; the bytes, the
// torn-tail rule and the fsync live here.
//
// A line is eight lowercase hex digits of the payload's CRC-32 (IEEE), one
// space, the payload (at least one byte, never a '\n'), then '\n'. Line 1
// is the log's header.
//
// The torn-tail rule, the same for every log: a line is bad when its frame
// is bad (short, or a CRC field other than its payload's eight lowercase hex
// digits), when it has no terminating '\n', or when the caller's fn refuses
// it. A blank line is a bad line; no writer emits one. A bad line is
// tolerated only as the last line — the signature of a crash mid-write — and
// is dropped, with the clean offset set to its start. A bad line with
// anything after it is corruption, and a bad line 1 is always refused.
// Read never panics, whatever the input (FuzzFrame).
package frame

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
)

// ErrCorrupt is wrapped by every refusal of a log's content: a bad line 1,
// a bad line with more after it, or an empty log. I/O errors do not wrap
// it.
var ErrCorrupt = errors.New("frame: corrupt line log")

// AppendLine appends one framed line holding payload to dst.
func AppendLine(dst, payload []byte) []byte {
	dst = appendCRC(dst, payload)
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// appendCRC appends the CRC field of payload: its CRC-32 (IEEE) as eight
// lowercase hex digits.
func appendCRC(dst, payload []byte) []byte {
	const hex = "0123456789abcdef"
	sum := crc32.ChecksumIEEE(payload)
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, hex[sum>>shift&0xf])
	}
	return dst
}

// Read reads a line log from r and hands fn each good line's payload with
// its 1-based line number, line 1 (the header) included. The payload is
// valid only during the call. A non-nil error from fn makes the line bad.
// clean is the offset just past the last good line; under the torn-tail
// rule it is where the next append belongs. A refusal wraps ErrCorrupt and,
// when fn refused, fn's error too.
func Read(r io.Reader, fn func(line int, payload []byte) error) (clean int64, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var long []byte // a line longer than br's buffer, reassembled
	var fault error // why line n-1 was bad; fatal if line n exists
	n := 0
	for {
		raw, rerr := br.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			long = append(long[:0], raw...)
			for rerr == bufio.ErrBufferFull {
				raw, rerr = br.ReadSlice('\n')
				long = append(long, raw...)
			}
			raw = long
		}
		if rerr != nil && rerr != io.EOF {
			return clean, fmt.Errorf("frame: read: %w", rerr)
		}
		if len(raw) == 0 {
			break
		}
		if fault != nil {
			return clean, fmt.Errorf("%w: line %d is bad (%w) and more follows", ErrCorrupt, n, fault)
		}
		n++
		if fault = check(raw, n, fn); fault == nil {
			clean += int64(len(raw))
		} else if n == 1 {
			return 0, fmt.Errorf("%w: line 1: %w", ErrCorrupt, fault)
		}
		if rerr == io.EOF {
			break
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("%w: empty", ErrCorrupt)
	}
	return clean, nil
}

// check applies the line rule to raw (one line, its '\n' included when
// present) and hands a good payload to fn.
func check(raw []byte, n int, fn func(int, []byte) error) error {
	if raw[len(raw)-1] != '\n' {
		return errors.New("no terminating newline")
	}
	line := raw[:len(raw)-1]
	if len(line) < 10 || line[8] != ' ' {
		return errors.New("short or unframed line")
	}
	// The field must be the bytes AppendLine writes: a space-padded,
	// left-aligned, 0x-prefixed or upper-case rendering is refused, not
	// read loosely.
	field, payload := line[:8], line[9:]
	var want [8]byte
	if !bytes.Equal(field, appendCRC(want[:0], payload)) {
		return fmt.Errorf("crc mismatch: field %q, payload's crc is %q", field, want[:])
	}
	return fn(n, payload)
}

// Log is an append-only line log on disk. Each Append is one write and one
// fsync, so a nil error means the line survives any later crash. Append is
// safe for concurrent use.
type Log struct {
	mu     sync.Mutex
	f      *os.File
	line   []byte // framing buffer, reused
	closed bool
}

// Create creates the log at path, truncating any previous file, and writes
// header as line 1.
func Create(path string, header []byte) (*Log, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("frame: %w", err)
	}
	return start(f, header)
}

// Open opens the log at path for appending after replaying it through fn
// (see Read). A torn tail is truncated away, and truncated is the number of
// bytes it held. With a non-nil header, a missing or empty file is a fresh
// log: it is created with header as line 1 and fn is not called. With a nil
// header, a missing file is an error and an empty one a refusal.
func Open(path string, header []byte, fn func(line int, payload []byte) error) (l *Log, truncated int64, err error) {
	flag := os.O_RDWR
	if header != nil {
		flag |= os.O_CREATE
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("frame: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("frame: %w", err)
	}
	if st.Size() == 0 && header != nil {
		l, err := start(f, header)
		return l, 0, err
	}
	clean, err := Read(f, fn)
	if err == nil && clean < st.Size() {
		err = f.Truncate(clean)
	}
	if err == nil {
		_, err = f.Seek(clean, io.SeekStart)
	}
	if err != nil {
		f.Close()
		if !errors.Is(err, ErrCorrupt) {
			err = fmt.Errorf("frame: %w", err)
		}
		return nil, 0, err
	}
	return &Log{f: f}, st.Size() - clean, nil
}

// start wraps a new, empty file and writes its header.
func start(f *os.File, header []byte) (*Log, error) {
	l := &Log{f: f}
	if err := l.Append(header); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Append frames payload as one line, writes it and fsyncs.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("frame: appending to a closed log")
	}
	l.line = AppendLine(l.line[:0], payload)
	if _, err := l.f.Write(l.line); err != nil {
		return fmt.Errorf("frame: write: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("frame: sync: %w", err)
	}
	return nil
}

// Close releases the file. Later appends fail; a second Close is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
