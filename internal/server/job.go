package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"time"

	"hotpotato/internal/engine"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
)

// Duration is a time.Duration that marshals as a human-readable string
// ("250ms") and unmarshals from either a string or a nanosecond number, so
// job specs read naturally as JSON.
type Duration time.Duration

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("duration must be a string like %q or a nanosecond count", "250ms")
	}
	*d = Duration(ns)
	return nil
}

// JobSpec is the JSON body of POST /v1/jobs: one routing problem, described
// with the same names every CLI accepts (the shared internal/spec
// registry). Zero values take the documented defaults.
type JobSpec struct {
	// Dim and Side describe the mesh (default 2 and 16); Torus selects
	// wraparound edges.
	Dim   int  `json:"dim,omitempty"`
	Side  int  `json:"side,omitempty"`
	Torus bool `json:"torus,omitempty"`
	// K is the packet count for workloads that take one (default 64).
	K int `json:"k,omitempty"`
	// Tenant names the submitting tenant for admission control and
	// accounting. Empty means the default tenant; the HTTP layer also
	// fills it from the X-Tenant request header.
	Tenant string `json:"tenant,omitempty"`
	// MaxAttempts is this job's retry budget (attempts before it is
	// reported failed), overriding the server default. 0 = server default.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// Policy is a registry name (default "restricted").
	Policy string `json:"policy,omitempty"`
	// Workload selects the traffic pattern (default "uniform"). It accepts
	// either a bare registry name ("hotspot") or a structured object
	// ({"name": "hotspot", "params": {"frac": "0.8"}, "arrivals": {...}}) —
	// the same spec.WorkloadSpec every CLI flag parses. Arrivals nested here
	// attach a dynamic injection source to the run.
	Workload spec.WorkloadSpec `json:"workload,omitempty"`
	// Seed makes the job deterministic (default 1). The workload is drawn
	// from Seed and the engine runs with Seed+1, exactly like cmd/hotpotato.
	Seed int64 `json:"seed,omitempty"`
	// MaxSteps bounds the simulation length (0 = engine default).
	MaxSteps int `json:"max_steps,omitempty"`
	// Validation is the per-step checking level (default "greedy").
	Validation string `json:"validation,omitempty"`
	// Shards, when non-empty ("PxQ"), runs the job on the sharded engine
	// with that spatial decomposition (2-D meshes only; results are
	// bit-identical to the single engine's, see internal/shard). Mutually
	// exclusive with Fault. A sharded job's checkpoint is a
	// directory, and resume_from must name such a directory.
	Shards string `json:"shards,omitempty"`
	// DistWorkers, with Shards set, runs the job on the distributed
	// coordinator (internal/dshard) with that many worker processes over
	// loopback instead of in-process shard goroutines. 1 <= DistWorkers <=
	// the grid's shard count. Results stay bit-identical; checkpoints use
	// the same directory format, so distributed and in-process runs resume
	// each other's snapshots freely.
	DistWorkers int `json:"dist_workers,omitempty"`
	// NoLivelockDetect disables configuration hashing (detection is on by
	// default, so a deterministic livelock terminates the job).
	NoLivelockDetect bool `json:"no_livelock_detect,omitempty"`
	// Fault optionally installs a fault model (see spec.FaultConfig).
	Fault *spec.FaultConfig `json:"fault,omitempty"`
	// ProgressEvery is the stream epoch: a progress event every N steps
	// (default 100).
	ProgressEvery int `json:"progress_every,omitempty"`
	// StepDelay slows the engine down by sleeping this long after every
	// step. It exists for demos, load tests and drain tests — a sub-second
	// batch job becomes an observable long-running one.
	StepDelay Duration `json:"step_delay,omitempty"`
	// ResumeFrom names a checkpoint file on the server (as reported by a
	// drained job's status) to restore instead of generating the workload.
	// The rest of the spec must match the checkpointed run.
	ResumeFrom string `json:"resume_from,omitempty"`
}

// withDefaults returns the spec with zero values replaced by defaults.
func (js JobSpec) withDefaults() JobSpec {
	if js.Dim == 0 {
		js.Dim = 2
	}
	if js.Side == 0 {
		js.Side = 16
	}
	if js.Workload.Name == "" {
		js.Workload.Name = "uniform"
	}
	if js.K == 0 && !js.Workload.FixedSize() {
		js.K = 64 // fixed-size workloads derive k from the mesh; leave it 0
	}
	if js.Policy == "" {
		js.Policy = "restricted"
	}
	if js.Seed == 0 {
		js.Seed = 1
	}
	if js.ProgressEvery == 0 {
		js.ProgressEvery = 100
	}
	return js
}

// engineSpec converts the job into the one engine.Spec every frontend opens
// a run from. The server adds what it decides itself — wall-clock budget and
// checkpoint location — in Server.engineSpec.
func (js JobSpec) engineSpec() (engine.Spec, error) {
	es := engine.Spec{
		Dim:            js.Dim,
		Side:           js.Side,
		Torus:          js.Torus,
		Policy:         js.Policy,
		Validation:     js.Validation,
		Workload:       js.Workload,
		K:              js.K,
		Seed:           js.Seed,
		MaxSteps:       js.MaxSteps,
		DetectLivelock: !js.NoLivelockDetect,
		Fault:          js.Fault,
		DistWorkers:    js.DistWorkers,
		ResumeFrom:     js.ResumeFrom,
	}
	var err error
	if js.Shards != "" {
		es.Grid, err = shard.ParseGrid(js.Shards)
	}
	return es, err
}

// validate rejects a spec that can never build, so admission fails with a
// 400 instead of accepting a job doomed to fail. What a run may be and which
// features combine is engine.Spec.Validate's call; only the daemon's own
// rules live here.
func (js JobSpec) validate(maxNodes, maxK int) error {
	es, err := js.engineSpec()
	if err != nil {
		return err
	}
	if err := es.Validate(); err != nil {
		return err
	}
	nodes := 1
	for i := 0; i < js.Dim; i++ {
		nodes *= js.Side
		if nodes > maxNodes || nodes < 0 {
			return fmt.Errorf("mesh %d^%d exceeds the server's node limit %d", js.Side, js.Dim, maxNodes)
		}
	}
	if js.Workload.FixedSize() {
		if js.K != 0 {
			return fmt.Errorf("workload %q derives its packet count from the mesh; drop k (parameters go in the workload spec)", js.Workload.Name)
		}
	} else if js.K < 1 || js.K > maxK {
		return fmt.Errorf("k must be in [1, %d], got %d", maxK, js.K)
	}
	if js.ProgressEvery < 1 {
		return fmt.Errorf("progress_every must be >= 1, got %d", js.ProgressEvery)
	}
	if js.MaxAttempts < 0 || js.MaxAttempts > 64 {
		return fmt.Errorf("max_attempts must be in [0, 64], got %d", js.MaxAttempts)
	}
	if js.StepDelay < 0 {
		return fmt.Errorf("step_delay must be >= 0")
	}
	if as := js.Workload.Arrivals; as != nil && js.MaxSteps == 0 && !as.Bounded() {
		return fmt.Errorf("arrival jobs must terminate: set max_steps or give every arrival client a positive until")
	}
	return nil
}

// JobState is the lifecycle position of a job.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: executing on a worker.
	JobRunning JobState = "running"
	// JobDone: ran to its natural end (delivered, livelocked, or budget
	// exhausted — see the result for which).
	JobDone JobState = "done"
	// JobFailed: every attempt errored (bad spec deep-failure, policy
	// panic, timeout without checkpointing).
	JobFailed JobState = "failed"
	// JobCheckpointed: stopped early by drain or timeout with its state
	// saved; resubmit the same spec with resume_from to continue.
	JobCheckpointed JobState = "checkpointed"
	// JobQuarantined: a poison job, hard-stopped after repeated panics or
	// repeated crash-interrupted runs. Never retried, never recovered.
	JobQuarantined JobState = "quarantined"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCheckpointed || s == JobQuarantined
}

// Job is one accepted simulation job. All mutable fields are guarded by mu;
// the stream handlers follow appends to events via the notify channel,
// which is closed and replaced on every change.
type Job struct {
	// ID is the server-assigned identifier ("j000001", ...).
	ID string
	// Spec is the normalized job spec (defaults applied).
	Spec JobSpec

	// recovered marks a job re-enqueued from the WAL after a restart;
	// priorStarts is how many executions earlier daemon lives began for it
	// (the poison-job evidence the quarantine policy counts).
	recovered   bool
	priorStarts int
	// recoveryResume is the periodic checkpoint WAL recovery put into
	// Spec.ResumeFrom ("" when it found none, or once it proved unusable);
	// clientResume is the resume_from the job was submitted with.
	recoveryResume string
	clientResume   string

	mu         sync.Mutex
	state      JobState
	created    time.Time
	started    time.Time
	finished   time.Time
	attempts   int
	progress   sim.Progress
	hasProg    bool
	result     *sim.Result
	errMsg     string
	checkpoint string
	finalHash  uint64
	events     [][]byte
	streamDone bool
	notify     chan struct{}
}

func newJob(id string, js JobSpec) *Job {
	return &Job{
		ID:      id,
		Spec:    js,
		state:   JobQueued,
		created: time.Now(),
		notify:  make(chan struct{}),
	}
}

// changeLocked wakes every follower; callers hold mu.
func (j *Job) changeLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// publish appends one NDJSON event line and wakes followers.
func (j *Job) publish(line []byte) {
	j.mu.Lock()
	j.events = append(j.events, line)
	j.changeLocked()
	j.mu.Unlock()
}

// publishFinal appends the last event line (the summary) and marks the
// stream complete in the same critical section, so a follower that sees
// done=true has necessarily been handed every line.
func (j *Job) publishFinal(line []byte) {
	j.mu.Lock()
	j.events = append(j.events, line)
	j.streamDone = true
	j.changeLocked()
	j.mu.Unlock()
}

// eventsFrom returns the event lines at index >= i, whether the stream is
// complete (the summary line is included), and a channel closed on the
// next change.
func (j *Job) eventsFrom(i int) (lines [][]byte, done bool, changed <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if i < len(j.events) {
		lines = j.events[i:]
	}
	return lines, j.streamDone, j.notify
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Checkpoint returns the checkpoint path recorded for the job ("" if none).
func (j *Job) Checkpoint() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.checkpoint
}

// Result returns the job's result summary, or nil before completion.
func (j *Job) Result() *sim.Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

func (j *Job) setRunning(attempt int) {
	j.mu.Lock()
	j.state = JobRunning
	j.attempts = attempt
	if j.started.IsZero() {
		j.started = time.Now()
	}
	j.changeLocked()
	j.mu.Unlock()
}

func (j *Job) setProgress(p sim.Progress) {
	j.mu.Lock()
	j.progress = p
	j.hasProg = true
	j.mu.Unlock()
}

func (j *Job) setCheckpoint(path string) {
	j.mu.Lock()
	j.checkpoint = path
	j.mu.Unlock()
}

// resumeFromRecovery points the job at its own periodic checkpoint. Called
// by WAL recovery before any worker runs.
func (j *Job) resumeFromRecovery(path string) {
	j.clientResume = j.Spec.ResumeFrom
	j.recoveryResume = path
	j.Spec.ResumeFrom = path
}

// dropRecoveryResume undoes resumeFromRecovery from the job's worker; status
// readers copy Spec under mu.
func (j *Job) dropRecoveryResume() {
	j.mu.Lock()
	j.Spec.ResumeFrom = j.clientResume
	j.recoveryResume = ""
	j.mu.Unlock()
}

func (j *Job) setFinalHash(h uint64) {
	j.mu.Lock()
	j.finalHash = h
	j.mu.Unlock()
}

// FinalHash returns the engine-state fingerprint recorded at completion
// (0 before the job is done).
func (j *Job) FinalHash() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finalHash
}

// finish moves the job to a terminal state. The caller emits the summary
// stream event separately (via publish) so followers see state first.
func (j *Job) finish(state JobState, res *sim.Result, errMsg string) {
	j.mu.Lock()
	j.state = state
	j.finished = time.Now()
	j.result = res
	j.errMsg = errMsg
	j.changeLocked()
	j.mu.Unlock()
}

// jobStatus is the JSON rendering of GET /v1/jobs/{id}.
type jobStatus struct {
	ID         string        `json:"id"`
	State      JobState      `json:"state"`
	Spec       JobSpec       `json:"spec"`
	Created    time.Time     `json:"created"`
	Started    *time.Time    `json:"started,omitempty"`
	Finished   *time.Time    `json:"finished,omitempty"`
	Attempts   int           `json:"attempts,omitempty"`
	Progress   *sim.Progress `json:"progress,omitempty"`
	Result     *sim.Result   `json:"result,omitempty"`
	Error      string        `json:"error,omitempty"`
	Checkpoint string        `json:"checkpoint,omitempty"`
	// Recovered marks jobs replayed from the WAL after a restart.
	Recovered bool `json:"recovered,omitempty"`
	// FinalHash is the engine-state fingerprint at completion, in hex: two
	// runs of the same spec — interrupted and recovered or not — must
	// report the same value (the chaos harness's bit-identity check).
	FinalHash string `json:"final_state_hash,omitempty"`
}

// status snapshots the job for the API.
func (j *Job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		ID:         j.ID,
		State:      j.state,
		Spec:       j.Spec,
		Created:    j.created,
		Attempts:   j.attempts,
		Result:     j.result,
		Error:      j.errMsg,
		Checkpoint: j.checkpoint,
		Recovered:  j.recovered,
	}
	if j.finalHash != 0 {
		st.FinalHash = fmt.Sprintf("%016x", j.finalHash)
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.hasProg {
		p := j.progress
		st.Progress = &p
	}
	return st
}

// jobID renders sequence numbers as stable, sortable IDs.
func jobID(n int64) string { return "j" + leftPad(strconv.FormatInt(n, 10), 6) }

func leftPad(s string, width int) string {
	for len(s) < width {
		s = "0" + s
	}
	return s
}
