package engine

import "sync"

// writer writes a run's checkpoints behind the run, on a goroutine of its
// own: at a save point the step loop only captures the state into a slot
// the writer owns, and the file's create, write, fsync and rename happen
// while the run steps on. Its rules:
//
//   - Newest capture wins. At most one write is in flight and one capture
//     pending; a newer capture replaces a pending one the writer has not
//     started, and a capture never waits for a write.
//   - Writes land in capture order, each a complete file (the write
//     function replaces the file atomically), so the file on disk is always
//     one whole earlier capture: a crash resumes from an older state, which
//     is deterministic and gives the same result.
//   - close returns once the writer is idle: the last capture is then on
//     disk, or close returns the error that kept it off.
//   - A write error sticks: every later capture returns it, and so does
//     close.
//   - Memory is bounded: the two slots are all the captures there are, and
//     they are reused from capture to capture.
type writer[T any] struct {
	write func(*T) error // runs on the writer's goroutine

	mu       sync.Mutex
	wake     sync.Cond // signalled when pending is set or the writer closes
	slots    [2]T
	writing  *T // the slot being written, nil when idle
	pending  *T // the newest capture not yet started
	closed   bool
	captured int // captures handed over (the run's goroutine only)
	written  int // captures on disk
	err      error
	exited   chan struct{}
}

// newWriter starts a writer whose goroutine hands each capture to write.
func newWriter[T any](write func(*T) error) *writer[T] {
	w := &writer[T]{write: write, exited: make(chan struct{})}
	w.wake.L = &w.mu
	go w.loop()
	return w
}

func (w *writer[T]) loop() {
	defer close(w.exited)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for w.pending == nil && !w.closed {
			w.wake.Wait()
		}
		if w.pending == nil || w.err != nil {
			return
		}
		slot := w.pending
		w.writing, w.pending = slot, nil
		w.mu.Unlock()
		err := w.write(slot)
		w.mu.Lock()
		w.writing = nil
		if err != nil {
			w.err = err
		} else {
			w.written++
		}
	}
}

// capture fills a free slot with fill, on the caller's goroutine, and
// queues it for writing. The slot is the pending capture's, which the new
// one replaces, or else the one not being written, so fill never races the
// writer. It returns the first write error, if one has happened, without
// capturing.
func (w *writer[T]) capture(fill func(*T) error) error {
	w.mu.Lock()
	if w.err != nil {
		defer w.mu.Unlock()
		return w.err
	}
	slot := w.pending
	w.pending = nil
	if slot == nil {
		slot = &w.slots[0]
		if slot == w.writing {
			slot = &w.slots[1]
		}
	}
	w.mu.Unlock()
	if err := fill(slot); err != nil {
		return err
	}
	w.captured++
	w.mu.Lock()
	w.pending = slot
	w.mu.Unlock()
	w.wake.Signal()
	return nil
}

// close waits until the last capture is written (or a write has failed)
// and the goroutine has exited, and reports how many captures reached the
// disk and the first write error.
func (w *writer[T]) close() (written int, err error) {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.wake.Signal()
	<-w.exited
	return w.written, w.err
}
