// Package checkpoint persists checkpoint values — engine snapshots
// (sim.Snapshot) and, via the generic WriteValue/ReadValue pair, any other
// serializable run state such as the sharded engine's per-shard files — as
// versioned checkpoint files, so long runs survive crashes and signals: the
// state is captured between steps, written atomically, and restored
// bit-identically on resume (see sim.Engine.Snapshot/Restore for the parity
// contract).
//
// The container format is a fixed header — magic "HPCK", one format byte,
// a little-endian uint32 container version, a little-endian uint32 IEEE
// CRC of the payload — followed by the encoded snapshot. Two payload
// encodings exist: JSON (debuggable, diffable, the format for files humans
// may inspect) and binary (format byte 'V': the value's own AppendBinary —
// internal/codec varints in field order, no reflection — for high-frequency
// checkpointing). Read sniffs the format from the header, so callers never
// need to know which encoding produced a file. Builds before the varint
// codec wrote gob under format byte 'B'; such a file is refused as
// ErrBadFile, never mis-decoded.
//
// The container version covers the envelope; the snapshot's own schema
// version rides inside the payload and is enforced by sim.Engine.Restore.
// Both are checked on load, so a checkpoint from a future build fails
// loudly instead of restoring garbage.
package checkpoint

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"hotpotato/internal/sim"
)

// Version is the container-format version written into every checkpoint.
const Version = 1

// Format selects the payload encoding.
type Format byte

const (
	// JSON encodes the snapshot as JSON: human-readable and stable across
	// Go versions, the right choice for checkpoints kept around or debugged.
	JSON Format = 'J'
	// Binary encodes the value with its own AppendBinary (varint fields, see
	// internal/codec): compact and fast, the right choice for high-frequency
	// periodic checkpointing.
	Binary Format = 'V'
)

// legacyGob is the format byte older builds wrote encoding/gob payloads
// under. Nothing reads it any more.
const legacyGob Format = 'B'

const headerLen = 13

var magic = [4]byte{'H', 'P', 'C', 'K'}

// binaryAppender is encoding.BinaryAppender (go 1.24), spelled out because
// go.mod's language version predates it.
type binaryAppender interface {
	AppendBinary(b []byte) ([]byte, error)
}

// bufPool recycles the buffers a checkpoint is assembled in (WriteValue) or
// read into (ReadValue), so a periodic save allocates nothing per call.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// ErrBadFile is returned by Read/Load for files that are not checkpoints,
// are truncated or corrupt, or come from a future container version.
var ErrBadFile = errors.New("checkpoint: not a valid checkpoint file")

// WriteValue encodes any checkpointable value into w inside the HPCK
// envelope. The envelope authenticates the container (magic, format byte,
// container version, payload CRC); any schema versioning of the value
// itself rides inside the payload and is the caller's contract — exactly
// how Read enforces sim.SnapshotVersion for engine snapshots.
func WriteValue(w io.Writer, v any, format Format) error {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	var hdr [headerLen]byte
	buf.Write(hdr[:]) // filled in below, once the payload's CRC is known
	switch format {
	case JSON:
		enc := json.NewEncoder(buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			return fmt.Errorf("checkpoint: encode: %w", err)
		}
	case Binary:
		a, ok := v.(binaryAppender)
		if !ok {
			return fmt.Errorf("checkpoint: encode: %T has no AppendBinary", v)
		}
		payload, err := a.AppendBinary(buf.AvailableBuffer())
		if err != nil {
			return fmt.Errorf("checkpoint: encode: %w", err)
		}
		buf.Write(payload)
	default:
		return fmt.Errorf("checkpoint: unknown format %q", byte(format))
	}

	b := buf.Bytes()
	copy(b[:4], magic[:])
	b[4] = byte(format)
	binary.LittleEndian.PutUint32(b[5:9], Version)
	binary.LittleEndian.PutUint32(b[9:headerLen], crc32.ChecksumIEEE(b[headerLen:]))
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	return nil
}

// ReadValue decodes a checkpoint produced by WriteValue into v (a non-nil
// pointer), sniffing the payload format from the header and verifying the
// container version and checksum.
func ReadValue(r io.Reader, v any) error {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: short header: %v", ErrBadFile, err)
	}
	if !bytes.Equal(hdr[:4], magic[:]) {
		return fmt.Errorf("%w: bad magic %q", ErrBadFile, hdr[:4])
	}
	format := Format(hdr[4])
	if ver := binary.LittleEndian.Uint32(hdr[5:9]); ver != Version {
		return fmt.Errorf("%w: container version %d, this build reads %d", ErrBadFile, ver, Version)
	}
	// Both decoders copy what they keep, so the payload can live in a
	// recycled buffer.
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(r); err != nil {
		return fmt.Errorf("%w: read payload: %v", ErrBadFile, err)
	}
	payload := buf.Bytes()
	if sum := crc32.ChecksumIEEE(payload); sum != binary.LittleEndian.Uint32(hdr[9:headerLen]) {
		return fmt.Errorf("%w: payload checksum mismatch (corrupt or truncated)", ErrBadFile)
	}

	switch format {
	case JSON:
		if err := json.Unmarshal(payload, v); err != nil {
			return fmt.Errorf("%w: decode: %v", ErrBadFile, err)
		}
	case Binary:
		u, ok := v.(encoding.BinaryUnmarshaler)
		if !ok {
			return fmt.Errorf("checkpoint: decode: %T has no UnmarshalBinary", v)
		}
		if err := u.UnmarshalBinary(payload); err != nil {
			return fmt.Errorf("%w: decode: %v", ErrBadFile, err)
		}
	case legacyGob:
		return fmt.Errorf("%w: format 'B' is the gob payload of an older build; this build reads 'V' and 'J'", ErrBadFile)
	default:
		return fmt.Errorf("%w: unknown format byte %q", ErrBadFile, byte(format))
	}
	return nil
}

// SaveValue writes any checkpointable value to path atomically: the bytes
// go to a temporary file in the same directory, are fsynced, and replace
// path with a rename. A crash mid-save therefore leaves the previous
// checkpoint intact — the property periodic checkpointing exists for.
func SaveValue(path string, v any, format Format) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := WriteValue(tmp, v, format); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// LoadValue reads a checkpoint file written by SaveValue into v.
func LoadValue(path string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	if err := ReadValue(f, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Write encodes the engine snapshot into w in the given format.
func Write(w io.Writer, s *sim.Snapshot, format Format) error {
	return WriteValue(w, s, format)
}

// Read decodes an engine snapshot produced by Write, additionally enforcing
// the snapshot's own schema version in either format: a snapshot of another
// schema is refused, never reinterpreted (v1 runs drew tie-breaks from a
// stream this build no longer has).
func Read(r io.Reader) (*sim.Snapshot, error) {
	s := &sim.Snapshot{}
	if err := ReadValue(r, s); err != nil {
		return nil, err
	}
	if s.Version != sim.SnapshotVersion {
		return nil, fmt.Errorf("%w: snapshot schema v%d, this build reads v%d", ErrBadFile, s.Version, sim.SnapshotVersion)
	}
	return s, nil
}

// Save writes the engine snapshot to path atomically (see SaveValue).
func Save(path string, s *sim.Snapshot, format Format) error {
	return SaveValue(path, s, format)
}

// Load reads a checkpoint file written by Save (either format).
func Load(path string) (*sim.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
