// Package run executes a grid of independent work cells under supervision:
// bounded parallelism, per-cell panic isolation and timeout, retry with
// exponential backoff and jitter, and a crash-safe journal of fates. Its
// users are cmd/sweep (Execute and the journal — a sweep that dies 90% of
// the way through a 400-cell grid resumes from its journal and reruns only
// the missing cells), hotpotatod's job supervisor in internal/server
// (Single, with its retries) and internal/dshard (BackoffDelay, for dial
// and barrier retries).
//
// The journal is an internal/frame line log (JournalVersion 2): line 1 is a
// JSON header labelling the grid, every later line one JSON Entry. The
// framing, the fsync and the torn-tail rule are internal/frame's; this
// package adds the label check and the map of recorded fates. A version 1
// journal, which had no CRC framing, is refused with ErrBadJournal.
//
// The model is deliberately minimal: a Cell is a key plus a function that
// returns an opaque JSON payload. The supervisor neither interprets the
// payload nor orders cell execution beyond submission order; callers
// reassemble results in whatever order they need from Report.Cells.
package run

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime/debug"
	"sync"
	"time"

	"hotpotato/internal/rng"
)

// Cell is one unit of supervised work. Key must be unique within a grid and
// stable across processes — it is how a resumed run recognises finished
// work in the journal. Work receives a context that is cancelled when the
// cell's timeout expires; it should return the cell's result as JSON.
type Cell struct {
	Key  string
	Work func(ctx context.Context) (json.RawMessage, error)
}

// Options configures the supervisor.
type Options struct {
	// Workers bounds how many cells run concurrently. <= 0 means 1.
	Workers int
	// CellTimeout bounds one attempt of one cell. The attempt's context is
	// cancelled at the deadline; if the work function ignores its context
	// the supervisor abandons the attempt anyway (the goroutine is leaked
	// rather than letting one hung cell wedge the whole grid). 0 = no limit.
	CellTimeout time.Duration
	// MaxAttempts caps how many times a failing cell is tried. <= 0 means 1
	// (no retry).
	MaxAttempts int
	// BackoffBase is the delay before the first retry; each further retry
	// doubles it, capped at BackoffMax. Jitter of ±50% is applied, derived
	// deterministically from Seed, the cell key, and the attempt number.
	// Defaults: 100ms base, 5s cap.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed feeds the backoff jitter so reruns space retries identically.
	Seed int64
	// Journal, when non-nil, records every finished cell and lets cells
	// already recorded as ok be skipped (their payload is replayed).
	Journal *Journal
	// Log, when non-nil, receives one human-readable progress line per
	// finished cell.
	Log io.Writer
}

// CellResult is the in-memory fate of one cell after Execute.
type CellResult struct {
	Key      string
	Status   string // StatusOK or StatusFailed
	Attempts int
	Elapsed  time.Duration
	Result   json.RawMessage // payload when Status == StatusOK
	Err      string          // last failure when Status == StatusFailed
	Resumed  bool            // replayed from the journal, not executed
}

// Report is the outcome of one Execute call.
type Report struct {
	// Cells holds one entry per input cell, in input order. Entries are nil
	// for cells that were never dispatched because the run was interrupted.
	Cells []*CellResult
	// OK, Failed and Resumed count fates; Resumed cells also count in OK.
	OK, Failed, Resumed int
	// Interrupted is true when the context was cancelled before every cell
	// was dispatched.
	Interrupted bool
}

// Failures returns the results of cells that exhausted their attempts.
func (r *Report) Failures() []*CellResult {
	var out []*CellResult
	for _, c := range r.Cells {
		if c != nil && c.Status == StatusFailed {
			out = append(out, c)
		}
	}
	return out
}

// ErrInterrupted is returned (wrapped with context.Cause) when Execute
// stops dispatching because its context was cancelled. In-flight cells are
// still finished and journaled before Execute returns.
var ErrInterrupted = errors.New("run: interrupted before all cells completed")

// Execute runs every cell under the supervision policy in opts. It returns
// a non-nil Report even on error: on interruption the report covers the
// cells that did finish (all of them journaled), so a later Execute against
// the same journal completes just the remainder.
//
// Errors inside cells do not abort the grid — they are retried per opts,
// then recorded as failed and reported; the caller decides whether a
// partially failed grid is fatal. Execute itself only returns an error for
// supervisor-level problems: duplicate keys, journal I/O, interruption.
func Execute(ctx context.Context, cells []Cell, opts Options) (*Report, error) {
	seen := make(map[string]struct{}, len(cells))
	for _, c := range cells {
		if c.Key == "" || c.Work == nil {
			return nil, fmt.Errorf("run: cell %q has empty key or nil work", c.Key)
		}
		if _, dup := seen[c.Key]; dup {
			return nil, fmt.Errorf("run: duplicate cell key %q", c.Key)
		}
		seen[c.Key] = struct{}{}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 1
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 100 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 5 * time.Second
	}

	report := &Report{Cells: make([]*CellResult, len(cells))}

	// Replay cells the journal already records as ok.
	todo := make([]int, 0, len(cells))
	for i, c := range cells {
		if opts.Journal != nil {
			if e, ok := opts.Journal.Completed(c.Key); ok {
				report.Cells[i] = &CellResult{
					Key:      c.Key,
					Status:   StatusOK,
					Attempts: e.Attempts,
					Elapsed:  time.Duration(e.ElapsedMS) * time.Millisecond,
					Result:   e.Result,
					Resumed:  true,
				}
				report.OK++
				report.Resumed++
				continue
			}
		}
		todo = append(todo, i)
	}

	var (
		mu      sync.Mutex // guards report counters and journal error
		jerr    error      // first journal failure, surfaced after the pool drains
		wg      sync.WaitGroup
		jobs    = make(chan int)
		started = report.Resumed
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res := runCell(ctx, cells[i], opts)
				mu.Lock()
				report.Cells[i] = res
				if res.Status == StatusOK {
					report.OK++
				} else {
					report.Failed++
				}
				started++
				n := started
				if opts.Journal != nil {
					if err := opts.Journal.Record(Entry{
						Key:       res.Key,
						Status:    res.Status,
						Attempts:  res.Attempts,
						ElapsedMS: res.Elapsed.Milliseconds(),
						Result:    res.Result,
						Error:     res.Err,
					}); err != nil && jerr == nil {
						jerr = err
					}
				}
				mu.Unlock()
				if opts.Log != nil {
					suffix := ""
					if res.Status == StatusFailed {
						suffix = ": " + res.Err
					}
					fmt.Fprintf(opts.Log, "cell %d/%d %s %s (%d attempt(s), %s)%s\n",
						n, len(cells), res.Status, res.Key, res.Attempts,
						res.Elapsed.Round(time.Millisecond), suffix)
				}
			}
		}()
	}

	interrupted := false
dispatch:
	for _, i := range todo {
		select {
		case <-ctx.Done():
			interrupted = true
			break dispatch
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait() // in-flight cells finish and are journaled before we return

	if jerr != nil {
		return report, jerr
	}
	if interrupted {
		report.Interrupted = true
		return report, fmt.Errorf("%w: %v", ErrInterrupted, context.Cause(ctx))
	}
	return report, nil
}

// Single executes one cell under the supervision policy in opts — panic
// isolation, per-attempt timeout, retry with jittered backoff — without the
// grid bookkeeping of Execute. It is the building block for callers that
// receive work continuously instead of as a batch (cmd/hotpotatod's job
// workers): each arriving job becomes one supervised cell. The context is
// consulted between attempts only; cancelling it suppresses retries but
// lets the attempt in flight finish (bounded by CellTimeout). Journal and
// Log options are ignored. The result is never nil.
func Single(ctx context.Context, c Cell, opts Options) *CellResult {
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 1
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 100 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 5 * time.Second
	}
	return runCell(ctx, c, opts)
}

// runCell executes one cell: attempts with panic isolation, timeout, and
// jittered exponential backoff between attempts. The supervisor context is
// only consulted between attempts — an interrupt lets the current attempt
// finish (bounded by CellTimeout) but suppresses retries.
func runCell(ctx context.Context, c Cell, opts Options) *CellResult {
	res := &CellResult{Key: c.Key}
	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		start := time.Now()
		payload, err := runAttempt(c, opts.CellTimeout)
		res.Elapsed = time.Since(start)
		if err == nil {
			res.Status = StatusOK
			res.Result = payload
			return res
		}
		res.Status = StatusFailed
		res.Err = err.Error()
		if attempt >= opts.MaxAttempts {
			return res
		}
		if !sleepBackoff(ctx, opts, c.Key, attempt) {
			res.Err += " (retries abandoned: " + context.Cause(ctx).Error() + ")"
			return res
		}
	}
}

// runAttempt invokes the work function in its own goroutine so a panic is
// contained and a deadline overrun abandons the attempt instead of wedging
// the worker.
func runAttempt(c Cell, timeout time.Duration) (json.RawMessage, error) {
	ctx := context.Background()
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()

	type outcome struct {
		payload json.RawMessage
		err     error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("panic: %v\n%s", r, debug.Stack())}
			}
		}()
		payload, err := c.Work(ctx)
		ch <- outcome{payload: payload, err: err}
	}()
	select {
	case o := <-ch:
		return o.payload, o.err
	case <-ctx.Done():
		return nil, fmt.Errorf("attempt timed out after %s", timeout)
	}
}

// backoffDelay computes the jittered exponential delay before retrying
// attempt. The jitter factor lies in [0.5, 1.5) and is derived
// deterministically from the seed, the cell key and the attempt number, so
// a rerun spaces its retries identically while distinct cells stay
// dispersed (no thundering herd after a shared transient failure).
func backoffDelay(opts Options, key string, attempt int) time.Duration {
	delay := opts.BackoffBase << (attempt - 1)
	if delay > opts.BackoffMax || delay <= 0 { // <= 0 guards shift overflow
		delay = opts.BackoffMax
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	u := uint64(rng.Mix(opts.Seed, int64(h.Sum64()), int64(attempt)))
	frac := float64(u>>11) / (1 << 53) // [0, 1)
	return time.Duration((0.5 + frac) * float64(delay))
}

// BackoffDelay computes the supervisor's jittered exponential retry delay
// without the rest of the supervision machinery: base<<(attempt-1) capped at
// max (attempt is 1-based), scaled by a deterministic jitter factor in
// [0.5, 1.5) derived from (seed, key, attempt). Exported for retry loops
// that manage their own attempts — the distributed shard coordinator spaces
// its transport retries with it — so every retrying subsystem disperses
// identically and reproducibly. Non-positive base/max fall back to the
// supervisor defaults (100ms, 5s).
func BackoffDelay(base, max time.Duration, seed int64, key string, attempt int) time.Duration {
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	if max <= 0 {
		max = 5 * time.Second
	}
	return backoffDelay(Options{BackoffBase: base, BackoffMax: max, Seed: seed}, key, attempt)
}

// sleepBackoff waits the jittered exponential delay before the next
// attempt. It returns false if the supervisor context is cancelled first.
func sleepBackoff(ctx context.Context, opts Options, key string, attempt int) bool {
	t := time.NewTimer(backoffDelay(opts, key, attempt))
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
