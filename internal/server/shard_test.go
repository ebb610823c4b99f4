package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hotpotato/internal/engine"
	"hotpotato/internal/shard"
)

// TestShardedJobLifecycle runs the same routing problem as a sharded job
// and as a plain single-engine job and demands identical final-state fingerprints —
// the parity contract of internal/shard, observed end to end through the
// HTTP API.
func TestShardedJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	const problem = `"side": 8, "seed": 3, "policy": "random", "workload": "full-load", "progress_every": 2`
	resp, sharded := postJob(t, ts, `{`+problem+`, "shards": "2x2"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST sharded = %d, want 202", resp.StatusCode)
	}
	_, plain := postJob(t, ts, `{`+problem+`}`)

	shardedDone := waitTerminal(t, ts, sharded.ID)
	plainDone := waitTerminal(t, ts, plain.ID)
	if shardedDone.State != JobDone {
		t.Fatalf("sharded job finished %q (err %q), want done", shardedDone.State, shardedDone.Error)
	}
	if shardedDone.Result == nil || shardedDone.Result.Delivered != shardedDone.Result.Total {
		t.Fatalf("sharded result %+v, want all delivered", shardedDone.Result)
	}
	if shardedDone.FinalHash == "" || shardedDone.FinalHash != plainDone.FinalHash {
		t.Fatalf("final hash: sharded %q, single %q — sharded runs must be bit-identical",
			shardedDone.FinalHash, plainDone.FinalHash)
	}
	if shardedDone.Result.Steps != plainDone.Result.Steps {
		t.Fatalf("steps: sharded %d, single %d", shardedDone.Result.Steps, plainDone.Result.Steps)
	}

	// The stream must carry progress epochs and close with a summary.
	events := readStream(t, ts, sharded.ID)
	progress := 0
	for _, ev := range events {
		if ev.Type == "progress" {
			progress++
		}
	}
	if progress == 0 {
		t.Error("sharded job's stream carried no progress events")
	}
	if len(events) == 0 || events[len(events)-1].Type != "summary" {
		t.Error("sharded job's stream did not close with a summary")
	}
}

// TestShardedJobRejects covers admission validation of sharded specs.
func TestShardedJobRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, spec := range map[string]string{
		"malformed grid":  `{"side": 8, "shards": "2x"}`,
		"grid too wide":   `{"side": 8, "shards": "9x1"}`,
		"removed workers": `{"side": 8, "workers": 2}`,
		"3-dim mesh":      `{"dim": 3, "side": 4, "shards": "2x2"}`,
		"fault injection": `{"side": 8, "shards": "2x2", "fault": {"rate": 0.01}}`,
	} {
		resp, _ := postJob(t, ts, spec)
		if name == "grid too wide" {
			// Grid-vs-side fit is only checked at build time (validate is
			// deliberately cheap); admission accepts, execution fails.
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("%s: POST = %d, want 202 (fails at execution)", name, resp.StatusCode)
			}
			continue
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestUnsupportedCombinations: the daemon's cross-feature refusals are the
// opener's compatibility table (engine.TestValidateTable), reached through
// the job-spec JSON: each one is engine.ErrUnsupported at Submit and a 400
// over HTTP, and the one bench/run.go greps for keeps its wording.
func TestUnsupportedCombinations(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	defer drainQuiet(t, s)
	for name, body := range map[string]string{
		"shards on dim 3":          `{"dim": 3, "side": 4, "shards": "2x2"}`,
		"shards with faults":       `{"side": 8, "shards": "2x2", "fault": {"crash_rate": 0.01}}`,
		"dist without shards":      `{"side": 8, "dist_workers": 2}`,
		"dist wider than the grid": `{"side": 8, "shards": "2x2", "dist_workers": 5}`,
		"dist with arrivals": `{"side": 8, "shards": "2x2", "dist_workers": 2, "max_steps": 50,
			"workload": {"name": "none", "arrivals": {"process": "poisson", "params": {"rate": "0.05"}}}}`,
	} {
		var js JobSpec
		if err := json.Unmarshal([]byte(body), &js); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err := s.Submit(js)
		if !errors.Is(err, engine.ErrUnsupported) {
			t.Errorf("%s: Submit err = %v, want engine.ErrUnsupported", name, err)
		}
		if name == "dist with arrivals" && !strings.Contains(err.Error(), "distributed jobs do not support arrivals") {
			t.Errorf("%s: %q lost the wording bench/run.go checks", name, err)
		}
		if resp, _ := postJob(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestShardedDrainCheckpointResume interrupts a sharded job with Drain and
// resumes it — on a different shard grid, which the directory checkpoint
// format explicitly permits — expecting the same outcome as an unbroken run.
func TestShardedDrainCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, CheckpointDir: dir, DrainGrace: 30 * time.Millisecond})

	const problem = `"side": 6, "seed": 9, "policy": "random", "workload": "full-load", "progress_every": 1, "max_steps": 100000`
	_, st := postJob(t, ts, `{`+problem+`, "shards": "2x2", "step_delay": "5ms"}`)
	if st.ID == "" {
		t.Fatal("job not accepted")
	}
	waitRunning(t, ts, st.ID)
	drainQuiet(t, s)

	final := getStatus(t, ts, st.ID)
	if final.State != JobCheckpointed {
		t.Fatalf("drained job state = %q (err %q), want checkpointed", final.State, final.Error)
	}
	if !strings.HasSuffix(final.Checkpoint, ".shards") {
		t.Fatalf("sharded checkpoint path %q, want a .shards directory", final.Checkpoint)
	}
	if fi, err := os.Stat(final.Checkpoint); err != nil || !fi.IsDir() {
		t.Fatalf("checkpoint directory: %v (isDir=%v)", err, fi != nil && fi.IsDir())
	}

	// The uninterrupted fingerprint to beat, computed on a second server.
	s2, ts2 := newTestServer(t, Config{Workers: 1})
	_, ref := postJob(t, ts2, `{`+problem+`, "shards": "2x2"}`)
	refDone := waitTerminal(t, ts2, ref.ID)

	resume := fmt.Sprintf(`{%s, "shards": "3x2", "resume_from": %q}`, problem, final.Checkpoint)
	_, st2 := postJob(t, ts2, resume)
	done := waitTerminal(t, ts2, st2.ID)
	if done.State != JobDone {
		t.Fatalf("resumed job finished %q (err %q), want done", done.State, done.Error)
	}
	if done.Result.Steps <= final.Progress.Time {
		t.Errorf("resumed run's final step %d not beyond checkpoint step %d", done.Result.Steps, final.Progress.Time)
	}
	if done.FinalHash == "" || done.FinalHash != refDone.FinalHash {
		t.Fatalf("final hash: resumed-on-3x2 %q, uninterrupted %q — recovery must be bit-identical",
			done.FinalHash, refDone.FinalHash)
	}
	drainQuiet(t, s2)
}

// TestShardedCheckpointRemovedWhenDone: a finished sharded job must not
// leave its periodic checkpoint directory behind.
func TestShardedCheckpointRemovedWhenDone(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, CheckpointDir: dir, CheckpointEvery: 2})
	_, st := postJob(t, ts, `{"side": 6, "k": 24, "seed": 9, "shards": "2x2", "progress_every": 1}`)
	done := waitTerminal(t, ts, st.ID)
	if done.State != JobDone {
		t.Fatalf("job finished %q (err %q), want done", done.State, done.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, st.ID+".shards")); !os.IsNotExist(err) {
		t.Errorf("finished job's checkpoint dir still present (stat err %v)", err)
	}
	drainQuiet(t, s)
}

// TestShardedKillRecoverResumesFromCheckpoint hard-crashes a daemon while a
// sharded job is mid-run with a committed checkpoint on disk, and demands
// that WAL recovery re-enqueues the job resuming from its .shards directory
// — not from scratch — and that the finished run's fingerprint still equals
// an uninterrupted baseline's.
func TestShardedKillRecoverResumesFromCheckpoint(t *testing.T) {
	spec := `{"side": 8, "k": 48, "seed": 11, "shards": "2x2", "progress_every": 1, "step_delay": "2ms"}`

	// Uninterrupted baseline of the same problem.
	var baseline string
	{
		s, ts := newTestServer(t, Config{Workers: 1})
		_, st := postJob(t, ts, spec)
		done := waitTerminal(t, ts, st.ID)
		if done.State != JobDone || done.FinalHash == "" {
			t.Fatalf("baseline finished %q (hash %q), want done", done.State, done.FinalHash)
		}
		baseline = done.FinalHash
		drainQuiet(t, s)
	}

	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckpt, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workers:         1,
		WALPath:         filepath.Join(dir, "jobs.wal"),
		CheckpointDir:   ckpt,
		CheckpointEvery: 2,
		QuarantineAfter: -1,
		Logf:            t.Logf,
	}
	s, ts := newTestServer(t, cfg)
	_, st := postJob(t, ts, spec)

	// Kill only once a checkpoint has been committed, so recovery has
	// something to resume from.
	ckdir := filepath.Join(ckpt, st.ID+".shards")
	deadline := time.Now().Add(30 * time.Second)
	for !shard.HasCheckpoint(ckdir) {
		if time.Now().After(deadline) {
			t.Fatalf("no committed checkpoint in %s before the deadline", ckdir)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ts.Close()
	s.Kill()

	s2, err := New(cfg)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	s2.Start()
	j, ok := s2.Job(st.ID)
	if !ok {
		t.Fatalf("job %s lost in the crash", st.ID)
	}
	if got := j.Spec.ResumeFrom; got != ckdir {
		t.Fatalf("recovered job resume_from = %q, want %q — sharded recovery must resume from the checkpoint directory", got, ckdir)
	}
	if end := waitJobDone(t, s2, st.ID); end != JobDone {
		t.Fatalf("recovered job finished %q, want done", end)
	}
	if got := fmt.Sprintf("%016x", j.FinalHash()); got != baseline {
		t.Fatalf("recovered fingerprint %s != baseline %s — resumed run not bit-identical", got, baseline)
	}
	drainQuiet(t, s2)
}
