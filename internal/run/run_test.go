package run

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func payload(s string) json.RawMessage { return json.RawMessage(fmt.Sprintf("%q", s)) }

// okCell returns its own key as payload and counts invocations.
func okCell(key string, calls *atomic.Int64) Cell {
	return Cell{Key: key, Work: func(ctx context.Context) (json.RawMessage, error) {
		if calls != nil {
			calls.Add(1)
		}
		return payload(key), nil
	}}
}

// TestExecuteAllOK: every cell runs exactly once, results land in input
// order, counters add up.
func TestExecuteAllOK(t *testing.T) {
	var calls atomic.Int64
	var cells []Cell
	for i := 0; i < 20; i++ {
		cells = append(cells, okCell(fmt.Sprintf("cell-%02d", i), &calls))
	}
	rep, err := Execute(context.Background(), cells, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 20 || rep.Failed != 0 || rep.Resumed != 0 || rep.Interrupted {
		t.Fatalf("report = %+v", rep)
	}
	if got := calls.Load(); got != 20 {
		t.Fatalf("work ran %d times, want 20", got)
	}
	for i, c := range rep.Cells {
		want := fmt.Sprintf("cell-%02d", i)
		if c == nil || c.Key != want || string(c.Result) != fmt.Sprintf("%q", want) {
			t.Fatalf("cells[%d] = %+v, want key %s", i, c, want)
		}
	}
}

// TestExecuteRejectsBadGrids: duplicate or empty keys fail before any work.
func TestExecuteRejectsBadGrids(t *testing.T) {
	var calls atomic.Int64
	dup := []Cell{okCell("a", &calls), okCell("a", &calls)}
	if _, err := Execute(context.Background(), dup, Options{}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	empty := []Cell{okCell("", &calls)}
	if _, err := Execute(context.Background(), empty, Options{}); err == nil {
		t.Fatal("empty key accepted")
	}
	if calls.Load() != 0 {
		t.Fatal("work ran despite invalid grid")
	}
}

// TestRetrySucceedsAfterFailures: a cell that fails twice then succeeds is
// retried with backoff and ends ok with Attempts == 3.
func TestRetrySucceedsAfterFailures(t *testing.T) {
	var calls atomic.Int64
	c := Cell{Key: "flaky", Work: func(ctx context.Context) (json.RawMessage, error) {
		if calls.Add(1) < 3 {
			return nil, errors.New("transient")
		}
		return payload("ok"), nil
	}}
	rep, err := Execute(context.Background(), []Cell{c}, Options{
		MaxAttempts: 5, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rep.Cells[0]
	if got.Status != StatusOK || got.Attempts != 3 {
		t.Fatalf("fate = %+v, want ok after 3 attempts", got)
	}
}

// TestRetryExhaustion: a permanently failing cell is tried exactly
// MaxAttempts times, recorded as failed, and does not abort the grid.
func TestRetryExhaustion(t *testing.T) {
	var calls atomic.Int64
	bad := Cell{Key: "doomed", Work: func(ctx context.Context) (json.RawMessage, error) {
		calls.Add(1)
		return nil, errors.New("deterministic failure")
	}}
	rep, err := Execute(context.Background(), []Cell{bad, okCell("fine", nil)}, Options{
		Workers: 2, MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", calls.Load())
	}
	if rep.OK != 1 || rep.Failed != 1 {
		t.Fatalf("report = %+v", rep)
	}
	f := rep.Failures()
	if len(f) != 1 || f[0].Key != "doomed" || !strings.Contains(f[0].Err, "deterministic failure") {
		t.Fatalf("failures = %+v", f)
	}
}

// TestPanicIsolation: a panicking cell becomes a failed fate with the panic
// message and stack; sibling cells and the process survive.
func TestPanicIsolation(t *testing.T) {
	boom := Cell{Key: "boom", Work: func(ctx context.Context) (json.RawMessage, error) {
		panic("kaboom")
	}}
	rep, err := Execute(context.Background(), []Cell{boom, okCell("fine", nil)}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Failures()
	if len(f) != 1 || !strings.Contains(f[0].Err, "kaboom") || !strings.Contains(f[0].Err, "run_test.go") {
		t.Fatalf("panic fate = %+v", f)
	}
	if rep.OK != 1 {
		t.Fatalf("sibling cell did not complete: %+v", rep)
	}
}

// TestCellTimeout: a cell that ignores its context is abandoned at the
// deadline and recorded as failed; one that honours ctx stops promptly.
func TestCellTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	hung := Cell{Key: "hung", Work: func(ctx context.Context) (json.RawMessage, error) {
		<-release // ignores ctx entirely
		return nil, nil
	}}
	polite := Cell{Key: "polite", Work: func(ctx context.Context) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	start := time.Now()
	rep, err := Execute(context.Background(), []Cell{hung, polite}, Options{
		Workers: 2, CellTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("grid wedged for %s on a hung cell", elapsed)
	}
	if rep.Failed != 2 {
		t.Fatalf("report = %+v, want both cells failed", rep)
	}
	for _, f := range rep.Failures() {
		if f.Key == "hung" && !strings.Contains(f.Err, "timed out") {
			t.Fatalf("hung fate = %+v", f)
		}
	}
}

// TestJournalRoundTrip: a journal written by one supervisor is resumable by
// another — completed cells replay without rerunning, missing cells run.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	var firstCalls atomic.Int64
	first := []Cell{okCell("a", &firstCalls), okCell("b", &firstCalls)}

	j, err := OpenJournal(path, "test-grid v1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(context.Background(), first, Options{Journal: j}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Resume with a superset grid: a and b must replay, c must run.
	var secondCalls atomic.Int64
	second := []Cell{okCell("a", &secondCalls), okCell("b", &secondCalls), okCell("c", &secondCalls)}
	j2, err := ResumeJournal(path, "test-grid v1")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Execute(context.Background(), second, Options{Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if secondCalls.Load() != 1 {
		t.Fatalf("resumed run executed %d cells, want 1", secondCalls.Load())
	}
	if rep.OK != 3 || rep.Resumed != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if !rep.Cells[0].Resumed || !rep.Cells[1].Resumed || rep.Cells[2].Resumed {
		t.Fatalf("resumed flags wrong: %+v %+v %+v", rep.Cells[0], rep.Cells[1], rep.Cells[2])
	}
	if string(rep.Cells[0].Result) != `"a"` {
		t.Fatalf("replayed payload = %s", rep.Cells[0].Result)
	}

	// A failed fate in the journal must NOT be skipped on resume.
	j3, err := ResumeJournal(path, "test-grid v1")
	if err != nil {
		t.Fatal(err)
	}
	if err := j3.Record(Entry{Key: "d", Status: StatusFailed, Attempts: 2, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	j3.Close()
	j4, err := ResumeJournal(path, "test-grid v1")
	if err != nil {
		t.Fatal(err)
	}
	defer j4.Close()
	if _, ok := j4.Completed("d"); ok {
		t.Fatal("failed cell treated as completed")
	}
	if _, ok := j4.Completed("c"); !ok {
		t.Fatal("ok cell lost across resume")
	}
}

// TestResumeRejectsMismatch: wrong label, wrong file shape, future version
// and corruption in the middle all refuse to resume.
func TestResumeRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grid.jsonl")
	j, err := OpenJournal(path, "grid-A")
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Record(Entry{Key: "a", Status: StatusOK, Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	if _, err := ResumeJournal(path, "grid-B"); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("label mismatch err = %v", err)
	}

	notJournal := filepath.Join(dir, "not.jsonl")
	os.WriteFile(notJournal, []byte("{\"foo\": 1}\n"), 0o644)
	if _, err := ResumeJournal(notJournal, ""); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("non-journal err = %v", err)
	}

	empty := filepath.Join(dir, "empty.jsonl")
	os.WriteFile(empty, nil, 0o644)
	if _, err := ResumeJournal(empty, ""); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("empty journal err = %v", err)
	}

	future := filepath.Join(dir, "future.jsonl")
	os.WriteFile(future, []byte(`{"journal":"hotpotato-run","version":99,"label":"x"}`+"\n"), 0o644)
	if _, err := ResumeJournal(future, ""); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("future version err = %v", err)
	}

	midCorrupt := filepath.Join(dir, "mid.jsonl")
	os.WriteFile(midCorrupt, []byte(
		`{"journal":"hotpotato-run","version":1,"label":"x"}`+"\n"+
			`{"key":"a","sta`+"\n"+ // torn line NOT at the end
			`{"key":"b","status":"ok","attempts":1}`+"\n"), 0o644)
	if _, err := ResumeJournal(midCorrupt, ""); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("mid-file corruption err = %v", err)
	}
}

// TestResumeToleratesTornTail: a journal killed mid-write (truncated final
// line) resumes cleanly, keeps the intact entries, and appends correctly.
func TestResumeToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	j, err := OpenJournal(path, "grid")
	if err != nil {
		t.Fatal(err)
	}
	j.Record(Entry{Key: "a", Status: StatusOK, Attempts: 1, Result: payload("a")})
	j.Record(Entry{Key: "b", Status: StatusOK, Attempts: 1, Result: payload("b")})
	j.Close()

	// Simulate a hard kill mid-write of a third entry.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"c","status":"o`)
	f.Close()

	j2, err := ResumeJournal(path, "grid")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j2.Completed("a"); !ok {
		t.Fatal("entry a lost")
	}
	if _, ok := j2.Completed("c"); ok {
		t.Fatal("torn entry c treated as completed")
	}
	if err := j2.Record(Entry{Key: "c", Status: StatusOK, Attempts: 1, Result: payload("c")}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	// The rewritten entry must parse on the next resume.
	j3, err := ResumeJournal(path, "grid")
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if _, ok := j3.Completed("c"); !ok {
		t.Fatal("entry appended after torn tail did not survive")
	}
}

// TestResumeUnterminatedTail: a journal killed between an entry's payload
// and its newline holds a final line that parses but is not terminated. It
// is torn like any other partial write — resuming must not append after it,
// or the next record fuses onto the same line and the journal is unusable
// from then on.
func TestResumeUnterminatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unterminated.jsonl")
	j, err := OpenJournal(path, "grid")
	if err != nil {
		t.Fatal(err)
	}
	j.Record(Entry{Key: "a", Status: StatusOK, Attempts: 1, Result: payload("a")})
	j.Record(Entry{Key: "b", Status: StatusOK, Attempts: 1, Result: payload("b")})
	j.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-1); err != nil { // chop b's newline
		t.Fatal(err)
	}

	j2, err := ResumeJournal(path, "grid")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := j2.Completed("a"); !ok {
		t.Fatal("entry a lost")
	}
	if _, ok := j2.Completed("b"); ok {
		t.Fatal("unterminated entry b treated as completed")
	}
	for _, key := range []string{"b", "c"} {
		if err := j2.Record(Entry{Key: key, Status: StatusOK, Attempts: 1, Result: payload(key)}); err != nil {
			t.Fatal(err)
		}
	}
	j2.Close()

	j3, err := ResumeJournal(path, "grid")
	if err != nil {
		t.Fatalf("resume after recording past an unterminated tail: %v", err)
	}
	defer j3.Close()
	for _, key := range []string{"a", "b", "c"} {
		if _, ok := j3.Completed(key); !ok {
			t.Fatalf("entry %s did not survive", key)
		}
	}

	// A header cut before its newline is no journal at all.
	hdrOnly := filepath.Join(t.TempDir(), "header.jsonl")
	if err := os.WriteFile(hdrOnly, []byte(`{"journal":"hotpotato-run","version":1,"label":"grid"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeJournal(hdrOnly, "grid"); !errors.Is(err, ErrBadJournal) {
		t.Fatalf("unterminated header err = %v, want ErrBadJournal", err)
	}
}

// TestGracefulInterrupt: cancelling mid-grid stops dispatching, finishes
// in-flight cells, journals them, and reports Interrupted; a second Execute
// against the journal completes only the remainder.
func TestGracefulInterrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.jsonl")
	j, err := OpenJournal(path, "grid")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	var ran atomic.Int64
	var cells []Cell
	for i := 0; i < 10; i++ {
		key := fmt.Sprintf("cell-%d", i)
		cells = append(cells, Cell{Key: key, Work: func(ctx context.Context) (json.RawMessage, error) {
			ran.Add(1)
			once.Do(cancel) // interrupt arrives while this cell is in flight
			time.Sleep(20 * time.Millisecond)
			return payload(key), nil
		}})
	}
	rep, err := Execute(ctx, cells, Options{Workers: 2, Journal: j})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if !rep.Interrupted {
		t.Fatal("report not marked interrupted")
	}
	j.Close()
	firstRan := ran.Load()
	if firstRan == 0 || firstRan == 10 {
		t.Fatalf("interrupt ran %d cells, want partial progress", firstRan)
	}
	// Every cell that ran must be in the journal (in-flight cells finished).
	if rep.OK != int(firstRan) {
		t.Fatalf("ok = %d but %d cells ran: in-flight work lost", rep.OK, firstRan)
	}

	j2, err := ResumeJournal(path, "grid")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	var reran atomic.Int64
	for i := range cells {
		key := cells[i].Key
		cells[i].Work = func(ctx context.Context) (json.RawMessage, error) {
			reran.Add(1)
			return payload(key), nil
		}
	}
	rep2, err := Execute(context.Background(), cells, Options{Workers: 2, Journal: j2})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.OK != 10 {
		t.Fatalf("resumed report = %+v", rep2)
	}
	if got := reran.Load(); got != 10-firstRan {
		t.Fatalf("resume reran %d cells, want %d", got, 10-firstRan)
	}
}

// TestBackoffDeterministicJitter: same seed/key/attempt give the same
// spacing; different keys give different spacing (no thundering herd).
func TestBackoffDeterministicJitter(t *testing.T) {
	opts := Options{Seed: 7, BackoffBase: time.Second, BackoffMax: time.Minute}
	d := func(key string, attempt int) time.Duration {
		return backoffDelay(opts, key, attempt)
	}
	if d("a", 1) != d("a", 1) {
		t.Fatal("jitter not deterministic for identical inputs")
	}
	if d("a", 1) == d("b", 1) && d("a", 2) == d("b", 2) && d("a", 3) == d("b", 3) {
		t.Fatal("jitter identical across keys: herd not dispersed")
	}
	for _, key := range []string{"a", "b", "c"} {
		got := d(key, 1)
		if got < opts.BackoffBase/2 || got >= opts.BackoffBase*3/2 {
			t.Fatalf("jittered delay %s outside [0.5b, 1.5b)", got)
		}
	}
}

// TestExecuteWithoutJournal: journal-less operation is fully supported.
func TestExecuteWithoutJournal(t *testing.T) {
	rep, err := Execute(context.Background(), []Cell{okCell("solo", nil)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK != 1 {
		t.Fatalf("report = %+v", rep)
	}
}
