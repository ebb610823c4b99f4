package engine

import (
	"errors"
	"reflect"
	"testing"
)

// TestWriterNewestCaptureWins: while a write is in flight, captures never
// wait for it; each replaces the pending one, so once the write completes
// only the newest is written — after the first, in capture order — and
// close returns once it is on disk.
func TestWriterNewestCaptureWins(t *testing.T) {
	started, release := make(chan int), make(chan struct{})
	var written []int
	w := newWriter(func(v *int) error {
		if len(written) == 0 {
			started <- *v
			<-release
		}
		written = append(written, *v)
		return nil
	})
	set := func(v int) func(*int) error { return func(slot *int) error { *slot = v; return nil } }
	if err := w.capture(set(1)); err != nil {
		t.Fatal(err)
	}
	if got := <-started; got != 1 {
		t.Fatalf("first write got capture %d, want 1", got)
	}
	for v := 2; v <= 4; v++ { // the write of 1 is blocked: these must not wait
		if err := w.capture(set(v)); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	n, err := w.close()
	if err != nil || n != 2 || !reflect.DeepEqual(written, []int{1, 4}) {
		t.Fatalf("close = %d, %v; written %v, want 2 writes [1 4]", n, err, written)
	}
	if w.captured != 4 {
		t.Fatalf("captured = %d, want 4", w.captured)
	}
}

// TestWriterErrorSticks: a failed write is returned by the next capture,
// which captures nothing, and by close; nothing is written after it, not
// even a capture that was pending when it failed.
func TestWriterErrorSticks(t *testing.T) {
	boom := errors.New("disk full")
	writes := 0
	w := newWriter(func(*int) error { writes++; return boom })
	if err := w.capture(func(*int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Capture until a capture reports the failed write.
	var err error
	for err == nil {
		err = w.capture(func(*int) error { return nil })
	}
	if !errors.Is(err, boom) {
		t.Fatalf("capture after a failed write = %v, want %v", err, boom)
	}
	if n, cerr := w.close(); n != 0 || !errors.Is(cerr, boom) {
		t.Fatalf("close = %d, %v, want 0 writes and %v", n, cerr, boom)
	}
	if writes != 1 {
		t.Fatalf("%d writes attempted, want only the failed one", writes)
	}
}
