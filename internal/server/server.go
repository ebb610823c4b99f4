// Package server turns the simulation engine into a long-running service:
// cmd/hotpotatod's job queue, worker pool, streaming results and metrics
// all live here, behind a plain net/http handler.
//
// The lifecycle is: New validates the config (and, when a WAL path is set,
// replays the durable job store), Start launches the worker pool, Handler
// serves the API, and Drain shuts down gracefully — admission stops, queued
// and running jobs finish or checkpoint (via internal/checkpoint), and the
// pool exits. Jobs execute under the internal/run supervisor, so a
// panicking policy or a hung attempt is contained the same way a sweep
// cell is.
//
// Durability (Config.WALPath): every lifecycle transition is fsynced into
// an internal/server/store WAL before the client observes it, so a crashed
// daemon — kill -9 included — restarts with every accepted job either
// finished (its recorded fate is replayed into the job table) or
// re-enqueued, resuming from its last periodic checkpoint when one exists.
// A job that repeatedly takes the daemon down with it is quarantined
// rather than recovered again, and a WAL that stops accepting writes (disk
// full, yanked volume) flips the server into degraded mode: /readyz turns
// 503 and admission stops, but running jobs finish and reads keep working.
//
// API surface:
//
//	POST /v1/jobs            submit a JobSpec; 202 + id, or 429 when the queue is full
//	                         or the tenant is over its admission quota
//	GET  /v1/jobs            list job statuses
//	GET  /v1/jobs/{id}       one job's status
//	GET  /v1/jobs/{id}/stream NDJSON: per-epoch progress, then a final summary
//	GET  /metrics            Prometheus text exposition
//	GET  /healthz            liveness (always ok while the process serves)
//	GET  /readyz             readiness (503 once draining or degraded)
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hotpotato/internal/engine"
	"hotpotato/internal/rng"
	"hotpotato/internal/run"
	"hotpotato/internal/server/metrics"
	"hotpotato/internal/server/store"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
)

// Config configures a Server. Zero values take the documented defaults.
type Config struct {
	// QueueDepth bounds the admission queue; a full queue answers 429 with
	// Retry-After (backpressure). Default 16.
	QueueDepth int
	// Workers is the number of jobs executed concurrently. Default 2.
	Workers int
	// JobTimeout bounds one job attempt's wall clock. It is enforced as the
	// engine's MaxWallTime, so a timed-out job stops between steps and
	// checkpoints like a drained one; a job stuck inside a single policy
	// call is abandoned by the supervisor at 2x this budget. 0 = unlimited.
	JobTimeout time.Duration
	// MaxAttempts caps attempts per job (retry on failure). Default 1.
	MaxAttempts int
	// CheckpointDir, when set, is where drained or timed-out jobs save
	// their engine state ("<dir>/<jobID>.hpck", or a "<dir>/<jobID>.shards"
	// directory for sharded jobs). Empty disables checkpointing: a drained
	// job is then recorded as failed.
	CheckpointDir string
	// CheckpointEvery, when > 0 (and CheckpointDir is set), additionally
	// checkpoints every running job each N engine steps, so a hard crash
	// resumes jobs from their last checkpoint instead of from scratch.
	// 0 keeps the save-on-stop-only behavior.
	CheckpointEvery int
	// WALPath, when set, makes the job store durable: every lifecycle
	// transition is fsynced into this write-ahead log before the client
	// observes it, and New replays the log — re-enqueueing unfinished
	// jobs — when a server is built over an existing file.
	WALPath string
	// TenantRate and TenantBurst configure per-tenant token-bucket
	// admission: each tenant accrues TenantRate job tokens per second up
	// to TenantBurst, and an empty bucket answers 429 with the exact
	// Retry-After. Rate 0 (the default) disables per-tenant limiting.
	TenantRate  float64
	TenantBurst int
	// QuarantineAfter is the poison-job threshold: a job whose executions
	// have started this many times without ever finishing — panicking
	// attempts in one daemon life, or runs cut short by daemon crashes
	// across lives — is quarantined instead of retried or recovered.
	// Default 3; negative disables quarantine.
	QuarantineAfter int
	// DrainGrace is how long Drain lets in-flight jobs run to natural
	// completion before cancelling them into checkpoints. Default 5s.
	DrainGrace time.Duration
	// MaxNodes and MaxK bound accepted specs (admission-time validation).
	// Defaults 1<<20.
	MaxNodes, MaxK int
	// Logf, when non-nil, receives one line per lifecycle event.
	Logf func(format string, args ...any)
	// OnJobStart, when non-nil, runs inside the supervised attempt right
	// before a job executes. It exists for tests: it may block to hold a
	// worker busy, or panic to simulate a poison job (the supervisor
	// contains it like any attempt panic). Production configs leave it nil.
	OnJobStart func(*Job)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 1
	}
	if c.DrainGrace <= 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 20
	}
	if c.MaxK <= 0 {
		c.MaxK = 1 << 20
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = 3
	}
	return c
}

// Server is the simulation service: an admission queue feeding a worker
// pool, a job table, and the metrics registry.
type Server struct {
	cfg Config

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string
	nextID   int64
	draining bool
	queue    chan *Job

	// jobCtx is cancelled when drain wants running engines to stop (after
	// the grace period); its cancellation makes every engine checkpoint.
	jobCtx  context.Context
	stopJob context.CancelFunc
	wg      sync.WaitGroup
	started atomic.Bool

	// store is the durable job WAL (nil without Config.WALPath); degraded
	// flips when a WAL write fails and never unflips — operators restart
	// the daemon once the disk is healthy, and recovery does the rest.
	store    *store.Store
	tenants  *tenantLimiter
	degraded atomic.Bool

	reg          *metrics.Registry
	accepted     *metrics.Counter
	rejected     *metrics.Counter
	throttled    *metrics.Counter
	completed    *metrics.Counter
	failed       *metrics.Counter
	checkpointed *metrics.Counter
	quarantined  *metrics.Counter
	recovered    *metrics.Counter
	retried      *metrics.Counter
	stepsTotal   *metrics.Counter
	runningCount atomic.Int64
	stepLatency  *metrics.Histogram
	stepsPerSec  *metrics.Histogram
	walFsync     *metrics.Histogram
}

// New builds a server (workers not yet running; call Start). With
// Config.WALPath set it also replays the job store: finished jobs become
// visible history, unfinished ones are re-enqueued ahead of new admissions.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	jobCtx, stopJob := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		jobs:    make(map[string]*Job),
		jobCtx:  jobCtx,
		stopJob: stopJob,
		tenants: newTenantLimiter(cfg.TenantRate, cfg.TenantBurst),
		reg:     metrics.NewRegistry(),
	}
	s.accepted = s.reg.Counter("hotpotatod_jobs_accepted_total", "Jobs admitted into the queue.")
	s.rejected = s.reg.Counter("hotpotatod_jobs_rejected_total", "Jobs rejected with 429 because the queue was full.")
	s.throttled = s.reg.Counter("hotpotatod_tenant_throttled_total", "Jobs rejected with 429 by per-tenant token-bucket admission.")
	s.completed = s.reg.Counter("hotpotatod_jobs_completed_total", "Jobs that ran to their natural end.")
	s.failed = s.reg.Counter("hotpotatod_jobs_failed_total", "Jobs whose every attempt errored.")
	s.checkpointed = s.reg.Counter("hotpotatod_jobs_checkpointed_total", "Jobs stopped early with their state saved.")
	s.quarantined = s.reg.Counter("hotpotatod_jobs_quarantined_total", "Poison jobs hard-stopped after repeated panics or crash-interrupted runs.")
	s.recovered = s.reg.Counter("hotpotatod_jobs_recovered_total", "Unfinished jobs re-enqueued from the WAL at startup.")
	s.retried = s.reg.Counter("hotpotatod_job_retries_total", "Execution attempts beyond each job's first.")
	s.stepsTotal = s.reg.Counter("hotpotatod_engine_steps_total", "Engine steps executed across all jobs.")
	s.reg.GaugeFunc("hotpotatod_jobs_running", "Jobs currently executing.", func() float64 {
		return float64(s.runningCount.Load())
	})
	s.reg.GaugeFunc("hotpotatod_queue_depth", "Jobs waiting in the admission queue.", func() float64 {
		return float64(len(s.queue))
	})
	s.reg.GaugeFunc("hotpotatod_queue_capacity", "Admission queue capacity.", func() float64 {
		return float64(cfg.QueueDepth)
	})
	s.reg.GaugeFunc("hotpotatod_degraded", "1 when WAL writes fail and admission is stopped.", func() float64 {
		if s.degraded.Load() {
			return 1
		}
		return 0
	})
	var err error
	s.stepLatency, err = s.reg.Histogram("hotpotatod_step_latency_seconds",
		"Wall-clock latency of one engine step.", 0, 0.005, 50)
	if err != nil {
		return nil, err
	}
	s.stepsPerSec, err = s.reg.Histogram("hotpotatod_job_steps_per_second",
		"Per-job engine throughput at completion.", 0, 2e6, 40)
	if err != nil {
		return nil, err
	}
	s.walFsync, err = s.reg.Histogram("hotpotatod_wal_fsync_seconds",
		"Latency of one WAL append+fsync.", 0, 0.02, 40)
	if err != nil {
		return nil, err
	}

	var rec *store.Recovery
	if cfg.WALPath != "" {
		s.store, rec, err = store.Open(cfg.WALPath)
		if err != nil {
			return nil, fmt.Errorf("server: job store: %w", err)
		}
	}
	// Recovered pending jobs ride in queue slots beyond QueueDepth, so a
	// restart never deadlocks on its own backlog and new admissions still
	// see the configured depth of headroom.
	pending := 0
	if rec != nil {
		pending = len(rec.Pending())
	}
	s.queue = make(chan *Job, cfg.QueueDepth+pending)
	if rec != nil {
		s.adoptRecovery(rec)
	}
	return s, nil
}

// parseJobID extracts the sequence number from a "j000042"-style ID.
func parseJobID(id string) (int64, bool) {
	if !strings.HasPrefix(id, "j") {
		return 0, false
	}
	n, err := strconv.ParseInt(id[1:], 10, 64)
	return n, err == nil && n > 0
}

// adoptRecovery rebuilds the job table from a replayed WAL: jobs with a
// recorded terminal fate become visible history, unfinished jobs are
// re-enqueued (resuming from their last on-disk checkpoint when one
// exists), and a job that has already started QuarantineAfter times
// without ever finishing — the signature of a poison job that keeps
// killing its host — is quarantined instead of being given another chance.
// Called from New, before workers or handlers exist, so no locking.
func (s *Server) adoptRecovery(rec *store.Recovery) {
	if rec.Truncated > 0 {
		s.logf("wal: repaired torn tail (%d bytes chopped)", rec.Truncated)
	}
	requeued := 0
	for _, jr := range rec.Jobs {
		if n, ok := parseJobID(jr.ID); ok && n > s.nextID {
			s.nextID = n // new admissions continue the ID sequence
		}
		var js JobSpec
		specErr := json.Unmarshal(jr.Spec, &js)
		js = js.withDefaults() // WAL specs are normalized, but defend anyway
		j := newJob(jr.ID, js)
		j.recovered = true
		j.priorStarts = jr.Starts
		s.jobs[jr.ID] = j
		s.order = append(s.order, jr.ID)
		switch {
		case specErr != nil:
			// Valid CRC but unreadable spec: fail it rather than guess.
			j.finish(JobFailed, nil, "unreadable spec in WAL: "+specErr.Error())
			s.publishSummary(j)
			s.walAppend(store.Record{Job: j.ID, Op: store.OpFailed, Error: "unreadable spec in WAL"})
		case !jr.Pending():
			s.adoptTerminal(j, jr)
		case s.cfg.QuarantineAfter > 0 && jr.Starts >= s.cfg.QuarantineAfter:
			msg := fmt.Sprintf("quarantined at recovery: %d interrupted run(s) without finishing", jr.Starts)
			s.quarantined.Inc()
			j.finish(JobQuarantined, nil, msg)
			s.publishSummary(j)
			s.walAppend(store.Record{Job: j.ID, Op: store.OpQuarantined, Error: msg})
			s.logf("job %s QUARANTINED at recovery (%d prior start(s))", j.ID, jr.Starts)
		default:
			if es, err := s.engineSpec(j); err == nil && engine.HasCheckpoint(es.CheckpointPath) {
				j.resumeFromRecovery(es.CheckpointPath)
			}
			s.recovered.Inc()
			requeued++
			s.queue <- j
			resume := "from scratch"
			if j.Spec.ResumeFrom != "" {
				resume = "resuming " + j.Spec.ResumeFrom
			}
			s.logf("recovered job %s (tenant %q, %d prior start(s), %s)", j.ID, jr.Tenant, jr.Starts, resume)
		}
	}
	if len(rec.Jobs) > 0 {
		s.logf("wal replay: %d job(s), %d re-enqueued", len(rec.Jobs), requeued)
	}
}

// adoptTerminal replays a finished job's recorded fate into the job table.
func (s *Server) adoptTerminal(j *Job, jr *store.JobRecord) {
	var res *sim.Result
	if len(jr.Result) > 0 {
		res = &sim.Result{}
		if json.Unmarshal(jr.Result, res) != nil {
			res = nil
		}
	}
	switch jr.Op {
	case store.OpDone:
		j.setFinalHash(jr.FinalHash)
		j.finish(JobDone, res, "")
	case store.OpFailed:
		j.finish(JobFailed, res, jr.Error)
	case store.OpCheckpointed:
		j.setCheckpoint(jr.Checkpoint)
		j.finish(JobCheckpointed, res, "")
	case store.OpQuarantined:
		j.finish(JobQuarantined, nil, jr.Error)
	}
	s.publishSummary(j)
}

// walAppend records one lifecycle transition in the WAL, timing the
// append+fsync. A write failure flips the server into degraded mode —
// admission stops and /readyz turns 503 — instead of crashing; running
// jobs keep going (their fates will be reconciled by recovery or rerun).
func (s *Server) walAppend(rec store.Record) error {
	if s.store == nil {
		return nil
	}
	t0 := time.Now()
	err := s.store.Append(rec)
	s.walFsync.Observe(time.Since(t0).Seconds())
	if err != nil {
		s.degrade(err)
	}
	return err
}

// degrade enters degraded mode (idempotent).
func (s *Server) degrade(err error) {
	if s.degraded.CompareAndSwap(false, true) {
		s.logf("DEGRADED: %v — admission stopped, /readyz answers 503", err)
	}
}

// Degraded reports whether a WAL write has failed.
func (s *Server) Degraded() bool { return s.degraded.Load() }

// Start launches the worker pool. It may be called once.
func (s *Server) Start() {
	if !s.started.CompareAndSwap(false, true) {
		return
	}
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.logf("serving with %d workers, queue depth %d", s.cfg.Workers, s.cfg.QueueDepth)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Drain shuts the service down gracefully: admission stops (readyz goes
// 503, POST answers 503), in-flight and queued jobs get DrainGrace to
// finish naturally, then running engines are cancelled so they checkpoint,
// and the worker pool exits. The context bounds the whole wait; on
// expiry Drain returns its error with workers still draining.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("server: already draining")
	}
	s.draining = true
	close(s.queue) // admission is refused before enqueue once draining is set
	s.mu.Unlock()
	s.logf("draining: admission stopped, %d queued, %d running", len(s.queue), s.runningCount.Load())

	// Give jobs the grace period to finish on their own, then cancel the
	// stragglers into checkpoints.
	grace := time.AfterFunc(s.cfg.DrainGrace, s.stopJob)
	defer grace.Stop()
	defer s.stopJob()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logf("drained: all workers exited")
		s.closeStore()
		return nil
	case <-ctx.Done():
		s.stopJob() // too late for grace; force the checkpoints now
		select {
		case <-done:
			s.closeStore()
			return nil
		case <-time.After(2 * time.Second):
			return fmt.Errorf("server: drain cut short: %w", context.Cause(ctx))
		}
	}
}

// closeStore releases the WAL after every writer has exited.
func (s *Server) closeStore() {
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			s.logf("wal close: %v", err)
		}
	}
}

// Kill simulates a hard crash (the in-process analogue of kill -9) for the
// chaos harness: the WAL is closed FIRST — so in-flight lifecycle
// transitions are lost, exactly like dirty pages a real crash never flushed
// — then running jobs are cancelled and the pool is torn down. No draining,
// no grace, no checkpoint-on-cancel guarantees beyond what periodic
// checkpointing already put on disk. The Server is unusable afterwards;
// recovery means building a new one over the same WALPath.
func (s *Server) Kill() {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	s.mu.Unlock()
	if s.store != nil {
		s.store.Close() //nolint:errcheck // crashing; later appends fail loudly
	}
	s.stopJob()
	if !alreadyDraining {
		s.mu.Lock()
		close(s.queue)
		s.mu.Unlock()
	}
	s.wg.Wait()
}

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Submit validates and admits a job, returning the created Job or an
// admission error: errDraining when the server no longer accepts work,
// errDegraded when the WAL stopped taking writes, errQueueFull for
// backpressure, a *throttleError when the tenant is over quota, or a spec
// validation error.
var (
	errDraining  = errors.New("server is draining; not accepting jobs")
	errDegraded  = errors.New("server is degraded (job store unwritable); not accepting jobs")
	errQueueFull = errors.New("admission queue is full; retry later")
)

// throttleError is per-tenant backpressure: retry after wait.
type throttleError struct {
	tenant string
	wait   time.Duration
}

func (e *throttleError) Error() string {
	return fmt.Sprintf("tenant %q is over its admission quota; retry in %s", e.tenant, e.wait.Round(time.Millisecond))
}

// tenantOf normalizes the accounting identity of a spec.
func tenantOf(js JobSpec) string {
	if js.Tenant == "" {
		return "default"
	}
	return js.Tenant
}

func (s *Server) Submit(js JobSpec) (*Job, error) {
	js = js.withDefaults()
	if err := js.validate(s.cfg.MaxNodes, s.cfg.MaxK); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	if s.degraded.Load() {
		return nil, errDegraded
	}
	// Capacity is checked before any state is touched: Submit is the only
	// enqueuer and it holds mu, so a free slot seen here cannot be taken
	// away before the send below.
	if len(s.queue) == cap(s.queue) {
		s.rejected.Inc()
		return nil, errQueueFull
	}
	tenant := tenantOf(js)
	if ok, wait := s.tenants.take(tenant, time.Now()); !ok {
		s.throttled.Inc()
		return nil, &throttleError{tenant: tenant, wait: wait}
	}
	s.nextID++
	j := newJob(jobID(s.nextID), js)
	// Durability before visibility: the accepted record must be on stable
	// storage before the client can learn the job ID — from here on, no
	// crash loses the job.
	if s.store != nil {
		spec, err := json.Marshal(js)
		if err == nil {
			err = s.walAppend(store.Record{Job: j.ID, Op: store.OpAccepted, Tenant: tenant, Spec: spec})
		}
		if err != nil {
			s.nextID--
			return nil, errDegraded
		}
	}
	s.queue <- j
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.accepted.Inc()
	return j, nil
}

// worker executes jobs until the queue is closed and empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.execute(j)
	}
}

// jobOutcome is the payload a successful supervised attempt returns: the
// run summary plus how the run ended.
type jobOutcome struct {
	Result       *sim.Result `json:"result"`
	Steps        int         `json:"steps"`
	Checkpointed bool        `json:"checkpointed"`
	Checkpoint   string      `json:"checkpoint,omitempty"`
	Canceled     bool        `json:"canceled"`
	TimedOut     bool        `json:"timed_out"`
	// FinalHash fingerprints the engine state of a naturally finished run
	// (see resultFingerprint); 0 for interrupted runs.
	FinalHash uint64 `json:"final_hash,omitempty"`
}

// resultFingerprint condenses a finished run into one comparable word: the
// engine's live-configuration hash folded with the movement counters. Two
// runs of the same spec report equal fingerprints iff they ended in
// bit-identical engine states having done identical work — which is how
// the chaos harness proves a crash-recovered run matches an uninterrupted
// one, whichever engine each ran on (equal states hash equally on all
// three: their parity contract).
func resultFingerprint(h *engine.Run, p sim.Progress) uint64 {
	return uint64(rng.Mix(int64(h.StateHash()), int64(p.Time), int64(p.Delivered),
		int64(p.Dropped), int64(p.Absorbed), p.TotalHops, p.TotalDeflections, int64(p.MaxNodeLoad)))
}

// isPanicErr recognizes the supervisor's panic-recovery error text.
func isPanicErr(err string) bool { return strings.Contains(err, "panic: ") }

// walErr truncates failure text for the WAL — panic errors carry whole
// stack traces, and the log keeps a line per transition, not a core dump.
func walErr(err string) string {
	if i := strings.IndexByte(err, '\n'); i >= 0 {
		err = err[:i]
	}
	if len(err) > 512 {
		err = err[:512] + "..."
	}
	return err
}

// maxAttempts resolves one job's retry budget: the spec's own budget when
// set, else the server default. QuarantineAfter is a hard ceiling on total
// starts — attempts this life plus crash-interrupted runs from earlier
// lives — so the budget is clamped to the starts remaining before the
// quarantine threshold; a poison job never gets extra chances to take the
// process down just because its retry budget is generous.
func (s *Server) maxAttempts(j *Job) int {
	n := s.cfg.MaxAttempts
	if j.Spec.MaxAttempts > 0 {
		n = j.Spec.MaxAttempts
	}
	if q := s.cfg.QuarantineAfter; q > 0 {
		if rem := q - j.priorStarts; rem < n {
			n = rem
			if n < 1 {
				n = 1
			}
		}
	}
	return n
}

// execute runs one job under the internal/run supervisor and moves it to
// its terminal state, recording every transition in the WAL.
func (s *Server) execute(j *Job) {
	s.runningCount.Add(1)
	defer s.runningCount.Add(-1)

	attempt := 0
	cell := run.Cell{
		Key: j.ID,
		Work: func(actx context.Context) (json.RawMessage, error) {
			attempt++
			j.setRunning(attempt)
			// Record the start before doing the work: if this attempt takes
			// the process down, the orphaned running record is the evidence
			// recovery counts toward quarantine.
			s.walAppend(store.Record{Job: j.ID, Op: store.OpRunning, Attempt: j.priorStarts + attempt}) //nolint:errcheck // degraded mode is the handler
			if s.cfg.OnJobStart != nil {
				s.cfg.OnJobStart(j)
			}
			return s.runJob(actx, j, attempt)
		},
	}
	opts := run.Options{
		MaxAttempts: s.maxAttempts(j),
		Seed:        j.Spec.Seed,
	}
	if s.cfg.JobTimeout > 0 {
		// The engine's MaxWallTime (set in runJob) is the graceful bound;
		// the supervisor's attempt timeout is the backstop for a job stuck
		// inside a single policy call.
		opts.CellTimeout = 2 * s.cfg.JobTimeout
	}
	res := run.Single(s.jobCtx, cell, opts)
	if res.Attempts > 1 {
		s.retried.Add(int64(res.Attempts - 1))
	}

	if res.Status != run.StatusOK {
		starts := j.priorStarts + res.Attempts
		// Quarantine only on the job's own misbehavior (panics, or crash
		// evidence from prior lives) — never because shutdown cancelled it;
		// a drained job must stay recoverable.
		if q := s.cfg.QuarantineAfter; q > 0 && starts >= q && s.jobCtx.Err() == nil &&
			(isPanicErr(res.Err) || j.priorStarts > 0) {
			s.quarantined.Inc()
			j.finish(JobQuarantined, nil, fmt.Sprintf("quarantined after %d start(s): %s", starts, res.Err))
			s.walAppend(store.Record{Job: j.ID, Op: store.OpQuarantined, Error: walErr(res.Err)}) //nolint:errcheck
			s.publishSummary(j)
			s.logf("job %s QUARANTINED after %d start(s): %s", j.ID, starts, walErr(res.Err))
			return
		}
		s.failed.Inc()
		j.finish(JobFailed, nil, res.Err)
		s.walAppend(store.Record{Job: j.ID, Op: store.OpFailed, Error: walErr(res.Err)}) //nolint:errcheck
		s.publishSummary(j)
		s.logf("job %s failed after %d attempt(s): %s", j.ID, res.Attempts, res.Err)
		return
	}
	var out jobOutcome
	if err := json.Unmarshal(res.Result, &out); err != nil {
		s.failed.Inc()
		j.finish(JobFailed, nil, "corrupt job payload: "+err.Error())
		s.walAppend(store.Record{Job: j.ID, Op: store.OpFailed, Error: "corrupt job payload"}) //nolint:errcheck
		s.publishSummary(j)
		return
	}
	resultJSON, _ := json.Marshal(out.Result)
	switch {
	case out.Checkpointed:
		s.checkpointed.Inc()
		j.setCheckpoint(out.Checkpoint)
		reason := "drained"
		if out.TimedOut {
			reason = "timed out"
		}
		j.finish(JobCheckpointed, out.Result, "")
		s.walAppend(store.Record{Job: j.ID, Op: store.OpCheckpointed, Checkpoint: out.Checkpoint, Result: resultJSON}) //nolint:errcheck
		s.publishSummary(j)
		s.logf("job %s checkpointed (%s) at step %d -> %s", j.ID, reason, out.Steps, out.Checkpoint)
	case out.Canceled || out.TimedOut:
		// Stopped early with nowhere to save state.
		s.failed.Inc()
		reason := "canceled at drain"
		if out.TimedOut {
			reason = "job timeout exceeded"
		}
		j.finish(JobFailed, out.Result, reason+" (no checkpoint dir configured)")
		s.walAppend(store.Record{Job: j.ID, Op: store.OpFailed, Error: reason}) //nolint:errcheck
		s.publishSummary(j)
	default:
		s.completed.Inc()
		j.setFinalHash(out.FinalHash)
		j.finish(JobDone, out.Result, "")
		s.walAppend(store.Record{Job: j.ID, Op: store.OpDone, Result: resultJSON, FinalHash: out.FinalHash}) //nolint:errcheck
		s.publishSummary(j)
		s.logf("job %s done: %d/%d delivered in %d steps",
			j.ID, out.Result.Delivered, out.Result.Total, out.Result.Steps)
	}
}

// engineSpec is the job as engine.Open takes it: the client's spec plus what
// the server decides — the wall-clock budget and, with a CheckpointDir,
// where ("<dir>/<id>.hpck", or "<dir>/<id>.shards" for sharded jobs) and how
// often the run's state is saved.
func (s *Server) engineSpec(j *Job) (engine.Spec, error) {
	es, err := j.Spec.engineSpec()
	es.MaxWall = s.cfg.JobTimeout
	if s.cfg.CheckpointDir != "" {
		es.CheckpointPath = filepath.Join(s.cfg.CheckpointDir, j.ID+es.CheckpointExt())
		es.CheckpointEvery = s.cfg.CheckpointEvery
	}
	return es, err
}

// runJob is one supervised attempt on the engine the spec selects. A
// periodic checkpoint is an optimisation of a deterministic run, so when the
// one WAL recovery picked turns out unreadable — truncated, corrupt, or
// written by an older build — it is logged and removed and the attempt runs
// the job as submitted instead (same final_state_hash). A resume_from the
// client supplied keeps failing loudly with the typed error.
func (s *Server) runJob(actx context.Context, j *Job, attempt int) (json.RawMessage, error) {
	out, err := s.runJobOnce(actx, j, attempt)
	if bad := j.recoveryResume; bad != "" && errors.Is(err, engine.ErrBadCheckpoint) {
		s.logf("job %s: recovered checkpoint unusable, running as submitted: %v", j.ID, err)
		engine.RemoveCheckpoint(bad) //nolint:errcheck // stale either way; the next save replaces it
		j.dropRecoveryResume()
		return s.runJobOnce(actx, j, attempt)
	}
	return out, err
}

// runJobOnce opens the job's run and supervises it until completion,
// drain-cancel or deadline. Which engine steps, how it is hooked and how its
// state reaches the checkpoint path are the opener's business; with a path
// configured an early stop always leaves a checkpoint there, so "stopped
// early" plus "something saved" is the whole checkpointed test.
func (s *Server) runJobOnce(actx context.Context, j *Job, attempt int) (json.RawMessage, error) {
	es, err := s.engineSpec(j)
	if err != nil {
		return nil, err
	}
	h, err := engine.Open(es)
	if err != nil {
		return nil, err
	}
	defer h.Close()

	// The run stops on whichever fires first: the attempt's backstop
	// deadline (actx), or drain deciding that running jobs must checkpoint.
	ctx, cancel := context.WithCancel(actx)
	defer cancel()
	stop := context.AfterFunc(s.jobCtx, cancel)
	defer stop()

	// Per step: sample the latency and count the step; per progress epoch:
	// update the status and publish to stream followers.
	started := time.Now()
	last := started
	sinceEpoch := 0
	delay := time.Duration(j.Spec.StepDelay)
	res, runErr := h.Run(ctx, func() {
		now := time.Now()
		s.stepLatency.Observe(now.Sub(last).Seconds())
		last = now
		s.stepsTotal.Inc()
		if sinceEpoch++; sinceEpoch >= j.Spec.ProgressEvery {
			sinceEpoch = 0
			p := h.Progress()
			j.setProgress(p)
			s.publishProgress(j, attempt, p)
		}
		if delay > 0 {
			time.Sleep(delay)
		}
	})
	if res == nil {
		return nil, runErr // validation failure, panic, lost run, checkpoint I/O
	}
	elapsed := time.Since(started)

	final := h.Progress()
	j.setProgress(final)
	s.publishProgress(j, attempt, final)
	if elapsed > 0 && final.Time > 0 {
		s.stepsPerSec.Observe(float64(final.Time) / elapsed.Seconds())
	}

	out := jobOutcome{Result: res, Steps: final.Time, Checkpoint: h.Saved()}
	switch {
	case runErr != nil: // context.Canceled: drain or backstop
		out.Canceled = true
	case res.DeadlineExceeded:
		out.TimedOut = true
	default:
		out.FinalHash = resultFingerprint(h, final)
		// A finished job's periodic checkpoint is stale — it must not shadow
		// a future job or confuse recovery's resume probe. It goes before the
		// job reads as done, so "done" implies "no checkpoint" (a crash in
		// between reruns the job from step 0 — same result).
		engine.RemoveCheckpoint(es.CheckpointPath) //nolint:errcheck
	}
	out.Checkpointed = out.Checkpoint != "" && (out.Canceled || out.TimedOut)
	return json.Marshal(out)
}

// publishProgress emits one NDJSON progress event.
func (s *Server) publishProgress(j *Job, attempt int, p sim.Progress) {
	line, err := json.Marshal(struct {
		Type    string `json:"type"`
		JobID   string `json:"job_id"`
		Attempt int    `json:"attempt"`
		sim.Progress
	}{"progress", j.ID, attempt, p})
	if err != nil {
		return
	}
	j.publish(line)
}

// publishSummary emits the final NDJSON event after the job reached its
// terminal state.
func (s *Server) publishSummary(j *Job) {
	st := j.status()
	line, err := json.Marshal(struct {
		Type       string      `json:"type"`
		JobID      string      `json:"job_id"`
		State      JobState    `json:"state"`
		Result     *sim.Result `json:"result,omitempty"`
		Error      string      `json:"error,omitempty"`
		Checkpoint string      `json:"checkpoint,omitempty"`
	}{"summary", j.ID, st.State, st.Result, st.Error, st.Checkpoint})
	if err != nil {
		return
	}
	j.publishFinal(line)
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /v1/spec", handleSpec)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Degraded() {
			http.Error(w, "degraded: job store unwritable", http.StatusServiceUnavailable)
			return
		}
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// handleSpec serves the registry catalog: every policy, workload and
// arrival process the server accepts, with parameter schemas and defaults.
// Clients discover what a job spec may say without trial submissions.
func handleSpec(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, spec.Catalog())
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the connection owns delivery
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var js JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&js); err != nil {
		writeJSON(w, http.StatusBadRequest, apiError{"bad job spec: " + err.Error()})
		return
	}
	if js.Tenant == "" {
		js.Tenant = r.Header.Get("X-Tenant")
	}
	j, err := s.Submit(js)
	var throttle *throttleError
	switch {
	case errors.As(err, &throttle):
		// Retry-After is whole seconds; round the token wait up so a
		// well-behaved client never retries into another 429.
		secs := int64((throttle.wait + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		writeJSON(w, http.StatusTooManyRequests, apiError{err.Error()})
		return
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, apiError{err.Error()})
		return
	case errors.Is(err, errDraining), errors.Is(err, errDegraded):
		writeJSON(w, http.StatusServiceUnavailable, apiError{err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]jobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleStream serves the job's NDJSON event stream: everything emitted so
// far is replayed, then the connection follows live until the job reaches
// a terminal state (the final summary line) or the client goes away.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{"no such job"})
		return
	}
	fl, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	if canFlush {
		fl.Flush()
	}
	i := 0
	for {
		lines, done, changed := j.eventsFrom(i)
		for _, line := range lines {
			if _, err := w.Write(append(line, '\n')); err != nil {
				return
			}
		}
		i += len(lines)
		if len(lines) > 0 && canFlush {
			fl.Flush()
		}
		if done {
			// The summary was in this batch (or an earlier one): the
			// stream is complete.
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WritePrometheus(w) //nolint:errcheck // the connection owns delivery
}

// Metrics exposes the registry (the daemon adds process-level gauges).
func (s *Server) Metrics() *metrics.Registry { return s.reg }
