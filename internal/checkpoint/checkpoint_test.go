package checkpoint

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hotpotato/internal/mesh"
	"hotpotato/internal/routing"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// midRunSnapshot builds an engine, steps it partway, and returns the
// snapshot plus the engine's state hash at the capture point.
func midRunSnapshot(t *testing.T) (*sim.Snapshot, uint64, *mesh.Mesh, sim.Options) {
	t.Helper()
	m := mesh.MustNew(2, 8)
	rng := rand.New(rand.NewSource(4))
	packets, err := workload.UniformRandom(m, 48, rng)
	if err != nil {
		t.Fatal(err)
	}
	opts := sim.Options{Seed: 4, Validation: sim.ValidateGreedy, MaxSteps: 4000, DetectLivelock: true}
	e, err := sim.New(m, routing.NewRandomGreedy(), packets, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return s, e.StateHash(), m, opts
}

// TestRoundTripFormats: both encodings reproduce the snapshot exactly and a
// restored engine lands on the snapshotted state hash.
func TestRoundTripFormats(t *testing.T) {
	snap, hash, m, opts := midRunSnapshot(t)
	for _, format := range []Format{JSON, Binary} {
		t.Run(string(rune(format)), func(t *testing.T) {
			var buf bytes.Buffer
			if err := Write(&buf, snap, format); err != nil {
				t.Fatal(err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, snap) {
				t.Fatalf("round-trip changed the snapshot:\ngot  %+v\nwant %+v", got, snap)
			}
			e, err := sim.New(m, routing.NewRandomGreedy(), nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Restore(got); err != nil {
				t.Fatal(err)
			}
			if e.StateHash() != hash {
				t.Fatalf("restored hash %#x, want %#x", e.StateHash(), hash)
			}
		})
	}
}

// TestSaveLoadAtomic: Save writes through a temp file + rename; Load reads
// it back; a failed Save leaves no temp litter.
func TestSaveLoadAtomic(t *testing.T) {
	snap, _, _, _ := midRunSnapshot(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := Save(path, snap, Binary); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("Save/Load changed the snapshot")
	}
	// Overwrite with the other format; Load must sniff it.
	if err := Save(path, snap, JSON); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp litter left behind: %v", entries)
	}
}

// TestReadRejectsCorruption: garbage, truncation, flipped bytes, a future
// container version and an unknown format byte all fail with ErrBadFile.
func TestReadRejectsCorruption(t *testing.T) {
	snap, _, _, _ := midRunSnapshot(t)
	var buf bytes.Buffer
	if err := Write(&buf, snap, Binary); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"empty":          {},
		"bad magic":      corrupt(func(b []byte) { b[0] = 'X' }),
		"future version": corrupt(func(b []byte) { b[5] = 99 }),
		"bad format":     corrupt(func(b []byte) { b[4] = 'Z' }),
		"flipped bit":    corrupt(func(b []byte) { b[len(b)-1] ^= 0x40 }),
		"flipped crc":    corrupt(func(b []byte) { b[9] ^= 0x01 }),
		"trailing byte":  Envelope(Binary, append(append([]byte(nil), good[headerLen:]...), 0)),
		"truncated":      good[:len(good)-7],
		"not a file":     []byte("hello world, definitely not a checkpoint"),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrBadFile) {
				t.Errorf("Read(%s) err = %v, want ErrBadFile", name, err)
			}
		})
	}
}

// TestLegacyGobRefused: a structurally valid file with the old 'B' format
// byte is ErrBadFile naming the older build — never handed to a decoder.
func TestLegacyGobRefused(t *testing.T) {
	snap, _, _, _ := midRunSnapshot(t)
	payload, err := snap.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Read(bytes.NewReader(Envelope('B', payload)))
	if !errors.Is(err, ErrBadFile) || !strings.Contains(err.Error(), "older build") {
		t.Fatalf("legacy file: err = %v, want ErrBadFile naming the older build", err)
	}
}

// TestV1SnapshotRefused: snapshot schema v1 (the builds that had
// Options.Workers and a serial tie-break stream) is refused by both codecs
// with the schema-version message, never replayed on a different stream.
func TestV1SnapshotRefused(t *testing.T) {
	snap, _, _, _ := midRunSnapshot(t)
	v1 := *snap
	v1.Version = 1
	for _, format := range []Format{JSON, Binary} {
		t.Run(string(rune(format)), func(t *testing.T) {
			var buf bytes.Buffer
			if err := Write(&buf, &v1, format); err != nil {
				t.Fatal(err)
			}
			file := buf.Bytes()
			if format == JSON {
				// A real v1 file also carries the field v2 dropped.
				payload := bytes.Replace(file[headerLen:], []byte(`"version": 1,`), []byte(`"version": 1, "workers": 2,`), 1)
				if !bytes.Contains(payload, []byte(`"workers"`)) {
					t.Fatal("fixture: version field not found in the JSON payload")
				}
				file = Envelope(JSON, payload)
			}
			_, err := Read(bytes.NewReader(file))
			if !errors.Is(err, ErrBadFile) || !strings.Contains(err.Error(), "snapshot schema v1") {
				t.Fatalf("v1 %c file: err = %v, want ErrBadFile naming snapshot schema v1", format, err)
			}
		})
	}
}

// TestBinaryWriteAllocs: with the pooled buffer a steady-state binary save
// encodes header and payload without allocating per call.
func TestBinaryWriteAllocs(t *testing.T) {
	snap, _, _, _ := midRunSnapshot(t)
	if avg := testing.AllocsPerRun(100, func() {
		if err := Write(io.Discard, snap, Binary); err != nil {
			t.Fatal(err)
		}
	}); avg > 3 {
		t.Fatalf("binary Write allocates %.1f objects per call, want <= 3", avg)
	}
}

// TestBinaryNeedsCodecMethods: a value without AppendBinary/UnmarshalBinary
// is an error in the Binary format, not a silent fallback.
func TestBinaryNeedsCodecMethods(t *testing.T) {
	v := struct{ A int }{7}
	if err := WriteValue(io.Discard, &v, Binary); err == nil {
		t.Fatal("WriteValue accepted a value with no AppendBinary")
	}
	if err := ReadValue(bytes.NewReader(Envelope(Binary, nil)), &v); err == nil {
		t.Fatal("ReadValue accepted a value with no UnmarshalBinary")
	}
}

// TestLoadMissingFile: a missing path surfaces the os error, not a panic.
func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}
