package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// A span is one timed call from the harness into a layer. Spans are
// recorded in the harness, around public functions only; spans inside the
// program are a later change (ROADMAP item 4), which must keep these names.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`     // one id per engine run or job
	Parent int    `json:"parent"` // index of the causing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the trace kept in memory; spans past it are counted, not
// stored, so a long traced pass cannot exhaust memory.
const maxSpans = 400_000

// tracer collects spans in memory. A nil *tracer records nothing, which is
// how the untraced run pays nothing for the instrumentation.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
	// counts are tallies taken at the same boundaries as the spans.
	counts map[string]int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), counts: map[string]int64{}} }

// count adds n to a named tally; set overwrites one.
func (t *tracer) count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

func (t *tracer) set(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] = v
	t.mu.Unlock()
}

func (t *tracer) get(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// begin opens a span and returns its index (-1 when not recording).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the daemon's
// own timestamps, a dshard StepHook).
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

// durations returns the length of every closed span called name, in the
// unit given (time.Microsecond for _us metrics, and so on).
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.End >= s.Start {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time in nanoseconds: a
// span's duration minus the part of it its direct children cover.
func (t *tracer) selfTimes() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for i := range t.spans {
		s := &t.spans[i]
		if s.Parent < 0 || s.End < s.Start {
			continue
		}
		p := &t.spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			child[s.Parent] += hi - lo
		}
	}
	self := make(map[string]int64)
	for i := range t.spans {
		if s := &t.spans[i]; s.End >= s.Start {
			self[s.Name] += max(s.End-s.Start-child[i], 0)
		}
	}
	return self
}

// write stores the trace as JSON: the spans plus per-name self time.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	self := t.selfTimes()
	t.mu.Lock()
	doc := struct {
		Spans   []span           `json:"spans"`
		Dropped int              `json:"dropped"`
		SelfNS  map[string]int64 `json:"self_ns"`
		Counts  map[string]int64 `json:"counts"`
	}{t.spans, t.dropped, self, t.counts}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
