package dshard

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {0}, []byte("hello"), bytes.Repeat([]byte{0xAB}, 4096)}
	var stream []byte
	for i, p := range payloads {
		stream = AppendFrame(stream, byte(i+1), p)
	}
	r := bytes.NewReader(stream)
	for i, p := range payloads {
		typ, got, err := ReadFrame(r, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(i+1) {
			t.Fatalf("frame %d: type %d, want %d", i, typ, i+1)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload mismatch (%d bytes vs %d)", i, len(got), len(p))
		}
	}
	if _, _, err := ReadFrame(r, 0); err != io.EOF {
		t.Fatalf("after last frame: want io.EOF, got %v", err)
	}
}

// TestFrameEveryFlipDetected flips every single byte of an encoded frame in
// turn: no flip may yield a successful parse of the original frame — each
// must surface as ErrFrameCorrupt. This is the "corruption is loud, never
// silent" acceptance criterion at its sharpest.
func TestFrameEveryFlipDetected(t *testing.T) {
	frame := AppendFrame(nil, mtStepped, []byte("the payload under test"))
	for i := range frame {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), frame...)
			mut[i] ^= 1 << bit
			_, _, err := ReadFrame(bytes.NewReader(mut), 0)
			if err == nil {
				t.Fatalf("flip byte %d bit %d: parsed successfully", i, bit)
			}
			if !errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("flip byte %d bit %d: err %v, want ErrFrameCorrupt", i, bit, err)
			}
		}
	}
}

func TestFrameLengthCap(t *testing.T) {
	frame := AppendFrame(nil, 1, bytes.Repeat([]byte{1}, 100))
	_, _, err := ReadFrame(bytes.NewReader(frame), 50)
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversized frame: err %v, want ErrFrameCorrupt", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(frame), 100); err != nil {
		t.Fatalf("frame at exactly the cap: %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	frame := AppendFrame(nil, 1, []byte("abcdef"))
	// Truncated payload: structural corruption, loud.
	if _, _, err := ReadFrame(bytes.NewReader(frame[:len(frame)-2]), 0); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("truncated payload: err %v, want ErrFrameCorrupt", err)
	}
	// Truncated header: a transport-level short read, passes through.
	if _, _, err := ReadFrame(bytes.NewReader(frame[:5]), 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated header: err %v, want io.ErrUnexpectedEOF", err)
	}
}

// stutterReader hands out its stream a few bytes at a time and fails with
// errStutter between the pieces — a read deadline expiring mid-frame.
type stutterReader struct {
	data  []byte
	piece int
	ready bool
}

var errStutter = errors.New("deadline")

func (s *stutterReader) Read(p []byte) (int, error) {
	if s.ready = !s.ready; !s.ready {
		return 0, errStutter
	}
	n := copy(p, s.data[:min(s.piece, len(s.data))])
	s.data = s.data[n:]
	if n == 0 {
		return 0, io.EOF
	}
	return n, nil
}

// TestFrameReaderResumes: a frameReader interrupted anywhere — inside the
// header, inside the payload — picks the same frame up on the next call, and
// reuses one buffer for the frames that fit it.
func TestFrameReaderResumes(t *testing.T) {
	payloads := [][]byte{bytes.Repeat([]byte{7}, 100), nil, []byte("short"), bytes.Repeat([]byte{9}, 100)}
	var stream []byte
	for i, p := range payloads {
		stream = AppendFrame(stream, byte(i+1), p)
	}
	for _, piece := range []int{1, 5, 14, 33} {
		fr := frameReader{r: &stutterReader{data: stream, piece: piece}}
		var first *byte
		for i, want := range payloads {
			typ, got, err := fr.next()
			for errors.Is(err, errStutter) {
				typ, got, err = fr.next()
			}
			if err != nil || typ != byte(i+1) || !bytes.Equal(got, want) {
				t.Fatalf("piece %d, frame %d: type %d, %d bytes, err %v", piece, i, typ, len(got), err)
			}
			if i == 0 {
				first = &got[0]
			} else if len(got) > 0 && &got[0] != first {
				t.Fatalf("piece %d, frame %d: payload buffer was not reused", piece, i)
			}
		}
		_, _, err := fr.next()
		for errors.Is(err, errStutter) {
			_, _, err = fr.next()
		}
		if err != io.EOF {
			t.Fatalf("piece %d: after the last frame: %v, want io.EOF", piece, err)
		}
	}
}

// countFrames reads frames until EOF, returning payloads of good frames and
// the count of corrupt ones.
func countFrames(t *testing.T, stream []byte) (good [][]byte, corrupt int) {
	t.Helper()
	r := bytes.NewReader(stream)
	for {
		_, p, err := ReadFrame(r, 0)
		if err == io.EOF {
			return good, corrupt
		}
		if errors.Is(err, ErrFrameCorrupt) {
			corrupt++
			continue
		}
		if err != nil {
			t.Fatalf("unexpected read error: %v", err)
		}
		good = append(good, p)
	}
}

func TestFaultWriterSchedule(t *testing.T) {
	write := func(plan *FaultPlan, frames int) []byte {
		var buf bytes.Buffer
		w := newFaultWriter(&buf, plan)
		for i := 0; i < frames; i++ {
			if err := WriteFrame(w, 1, []byte{byte(i)}); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
		}
		return buf.Bytes()
	}

	// Drop: every 3rd of 9 frames vanishes.
	good, corrupt := countFrames(t, write(&FaultPlan{DropEvery: 3}, 9))
	if len(good) != 6 || corrupt != 0 {
		t.Errorf("drop: %d good, %d corrupt; want 6, 0", len(good), corrupt)
	}

	// Dup: every 3rd frame appears twice; duplicates are byte-identical.
	good, corrupt = countFrames(t, write(&FaultPlan{DupEvery: 3}, 9))
	if len(good) != 12 || corrupt != 0 {
		t.Errorf("dup: %d good, %d corrupt; want 12, 0", len(good), corrupt)
	}

	// Corrupt: the 4th frame must fail validation loudly, whichever byte
	// the injector hit. (Only the last frame is corrupted here: a mangled
	// length field desyncs everything after it, exactly as on a real link.)
	r := bytes.NewReader(write(&FaultPlan{Seed: 9, CorruptEvery: 4}, 4))
	for i := 0; i < 3; i++ {
		if _, _, err := ReadFrame(r, 0); err != nil {
			t.Fatalf("corrupt schedule, clean frame %d: %v", i, err)
		}
	}
	if _, _, err := ReadFrame(r, 0); !errors.Is(err, ErrFrameCorrupt) {
		t.Errorf("corrupted frame: err %v, want ErrFrameCorrupt", err)
	}

	// MaxFaults caps the injection.
	good, _ = countFrames(t, write(&FaultPlan{DropEvery: 2, MaxFaults: 2}, 10))
	if len(good) != 8 {
		t.Errorf("capped drop: %d good frames, want 8", len(good))
	}

	// Inactive plan must return the writer unchanged.
	var buf bytes.Buffer
	if w := newFaultWriter(&buf, nil); w != &buf {
		t.Error("nil plan: writer was wrapped")
	}
	if w := newFaultWriter(&buf, &FaultPlan{}); w != &buf {
		t.Error("inactive plan: writer was wrapped")
	}
}
