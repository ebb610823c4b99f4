package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/engine"
	"hotpotato/internal/server/store"
	"hotpotato/internal/shard"
)

// baselineHash runs the spec on a plain server (no WAL, no checkpoints) and
// returns its final_state_hash.
func baselineHash(t *testing.T, spec string) string {
	t.Helper()
	s, ts := newTestServer(t, Config{Workers: 1})
	defer drainQuiet(t, s)
	_, st := postJob(t, ts, spec)
	done := waitTerminal(t, ts, st.ID)
	if done.State != JobDone || done.FinalHash == "" {
		t.Fatalf("baseline finished %q (err %q, hash %q)", done.State, done.Error, done.FinalHash)
	}
	return done.FinalHash
}

// midRunCheckpoint writes a valid periodic checkpoint of the spec at step 3
// and returns its bytes, as raw material for corruption.
func midRunCheckpoint(t *testing.T, js JobSpec, path string) []byte {
	t.Helper()
	es, err := js.withDefaults().engineSpec()
	if err != nil {
		t.Fatal(err)
	}
	h, err := engine.Open(es)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	e := h.Sim()
	for i := 0; i < 3; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.Save(path, snap, checkpoint.Binary); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// legacyGobFile is an HPCK file as builds before the varint codec wrote it:
// format byte 'B', container version 1, CRC matching its (gob) payload.
func legacyGobFile(t *testing.T) []byte {
	t.Helper()
	b, err := hex.DecodeString("4850434b4201000000" + "ca429eff" + "fe020e7f03010108536e617073686f7401ff8000")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// v1SnapshotFile re-labels a current binary checkpoint as snapshot schema v1
// — what a daemon from before the Workers removal left behind. The codec
// refuses on the version alone, before it reads another field.
func v1SnapshotFile(t *testing.T, current []byte) []byte {
	t.Helper()
	snap, err := checkpoint.Read(bytes.NewReader(current))
	if err != nil {
		t.Fatal(err)
	}
	snap.Version = 1
	var buf bytes.Buffer
	if err := checkpoint.Write(&buf, snap, checkpoint.Binary); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

type logBuf struct {
	mu    sync.Mutex
	lines []string
}

func (l *logBuf) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logBuf) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

// TestRecoveryFallsBackFromUnreadableCheckpoint: a periodic checkpoint is an
// optimisation of a deterministic run. When the one WAL recovery picked is
// truncated, fails its CRC, or is an older build's gob file, the recovered
// job logs it, drops it and runs from step 0 to the from-scratch fingerprint
// on its first attempt — while the same files named by a client's
// resume_from fail the job loudly.
func TestRecoveryFallsBackFromUnreadableCheckpoint(t *testing.T) {
	js := JobSpec{Side: 8, K: 48, Seed: 21}
	specJSON, _ := json.Marshal(js)
	want := baselineHash(t, string(specJSON))

	good := midRunCheckpoint(t, js, filepath.Join(t.TempDir(), "good.hpck"))
	flipped := append([]byte(nil), good...)
	flipped[9] ^= 0x01 // first CRC byte
	files := map[string][]byte{
		"truncated":   good[:len(good)/2],
		"flipped crc": flipped,
		"legacy gob":  legacyGobFile(t),
		"v1 snapshot": v1SnapshotFile(t, good),
	}
	for name, data := range files {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "ckpt")
			if err := os.MkdirAll(ckpt, 0o755); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(ckpt, "j000001.hpck")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := checkpoint.Load(path); !errors.Is(err, checkpoint.ErrBadFile) {
				t.Fatalf("fixture loads with %v, want ErrBadFile", err)
			}
			// The daemon that wrote a v1 checkpoint also accepted "workers":
			// WAL replay stays lenient about the dropped field and re-runs the
			// job on the one tie-break stream there is.
			walSpec := specJSON
			if name == "v1 snapshot" {
				walSpec = []byte(`{"side":8,"k":48,"seed":21,"workers":2}`)
			}
			wal := filepath.Join(dir, "jobs.wal")
			writeWAL(t, wal,
				store.Record{Job: "j000001", Op: store.OpAccepted, Tenant: "default", Spec: walSpec},
				store.Record{Job: "j000001", Op: store.OpRunning, Attempt: 1},
			)
			var logs logBuf
			s, err := New(Config{Workers: 1, WALPath: wal, CheckpointDir: ckpt, CheckpointEvery: 4, Logf: logs.logf})
			if err != nil {
				t.Fatal(err)
			}
			j, _ := s.Job("j000001")
			if j == nil || j.Spec.ResumeFrom != path {
				t.Fatalf("recovery did not pick %s", path)
			}
			s.Start()
			if st := waitJobDone(t, s, "j000001"); st != JobDone {
				t.Fatalf("recovered job ended %q (%s), want done", st, j.status().Error)
			}
			st := j.status()
			if st.FinalHash != want {
				t.Fatalf("fingerprint %s, want the from-scratch %s", st.FinalHash, want)
			}
			if st.Attempts != 1 || st.Spec.ResumeFrom != "" {
				t.Fatalf("fallback cost attempts (%d) or left resume_from %q", st.Attempts, st.Spec.ResumeFrom)
			}
			if !logs.contains("recovered checkpoint unusable") {
				t.Error("the dropped checkpoint was not logged")
			}
			drainQuiet(t, s)

			// The same bytes as a client's resume_from: typed, loud failure.
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			s2, ts2 := newTestServer(t, Config{Workers: 1})
			defer drainQuiet(t, s2)
			resume := js
			resume.ResumeFrom = path
			body, _ := json.Marshal(resume)
			_, st2 := postJob(t, ts2, string(body))
			failed := waitTerminal(t, ts2, st2.ID)
			if failed.State != JobFailed || !strings.Contains(failed.Error, checkpoint.ErrBadFile.Error()) {
				t.Fatalf("client resume_from ended %q (err %q), want failed with ErrBadFile", failed.State, failed.Error)
			}
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("a client's file must not be removed: %v", err)
			}
		})
	}
}

// TestRecoveryFallsBackFromUnreadableShardDir is the sharded counterpart: a
// committed .shards directory whose manifest no longer decodes.
func TestRecoveryFallsBackFromUnreadableShardDir(t *testing.T) {
	js := JobSpec{Side: 8, K: 48, Seed: 22, Shards: "2x1"}
	specJSON, _ := json.Marshal(js)
	want := baselineHash(t, string(specJSON))

	dir := t.TempDir()
	ckdir := filepath.Join(dir, "ckpt", "j000001.shards")
	if err := os.MkdirAll(ckdir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(ckdir, "MANIFEST.hpck"), legacyGobFile(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if !shard.HasCheckpoint(ckdir) {
		t.Fatal("fixture is not seen as a committed checkpoint")
	}
	wal := filepath.Join(dir, "jobs.wal")
	writeWAL(t, wal, store.Record{Job: "j000001", Op: store.OpAccepted, Tenant: "default", Spec: specJSON})
	s, err := New(Config{Workers: 1, WALPath: wal, CheckpointDir: filepath.Join(dir, "ckpt"), CheckpointEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	j, _ := s.Job("j000001")
	if st := waitJobDone(t, s, "j000001"); st != JobDone {
		t.Fatalf("recovered sharded job ended %q (%s), want done", st, j.status().Error)
	}
	if got := j.status().FinalHash; got != want {
		t.Fatalf("fingerprint %s, want the from-scratch %s", got, want)
	}
	drainQuiet(t, s)
}

// TestFinishedJobsLeaveNoCheckpoint runs 200 back-to-back jobs that save
// after every step on a 2-worker server: once a job reads as done its
// <id>.hpck must not exist — then or later — and no temp file may linger.
func TestFinishedJobsLeaveNoCheckpoint(t *testing.T) {
	const jobs = 200
	dir := t.TempDir()
	s, err := New(Config{Workers: 2, QueueDepth: jobs, CheckpointDir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ids := make([]string, jobs)
	for i := range ids {
		j, err := s.Submit(JobSpec{Side: 4, K: 10, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	gone := func(id string) {
		t.Helper()
		if _, err := os.Stat(filepath.Join(dir, id+".hpck")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("job %s is done but its checkpoint is on disk (stat: %v)", id, err)
		}
	}
	for _, id := range ids {
		if st := waitJobDone(t, s, id); st != JobDone {
			j, _ := s.Job(id)
			t.Fatalf("job %s ended %q: %s", id, st, j.status().Error)
		}
		gone(id)
	}
	drainQuiet(t, s)
	for _, id := range ids {
		gone(id) // nothing reappeared after the removal
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("checkpoint dir not empty after 200 finished jobs: %v", entries)
	}
}

// TestSaveErrorFailsItsOwnJob: a periodic save that cannot complete fails the
// attempt that made it, with the I/O error, and no job around it.
func TestSaveErrorFailsItsOwnJob(t *testing.T) {
	dir := t.TempDir()
	// j000002's checkpoint path is occupied by a non-empty directory, so the
	// rename that commits its save fails (chmod would not stop a root test).
	blocked := filepath.Join(dir, "j000002.hpck")
	if err := os.MkdirAll(filepath.Join(blocked, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, CheckpointDir: dir, CheckpointEvery: 2})
	defer drainQuiet(t, s)
	var final [3]jobStatus
	for i := range final {
		_, st := postJob(t, ts, fmt.Sprintf(`{"side": 6, "k": 30, "seed": %d}`, i+1))
		final[i] = waitTerminal(t, ts, st.ID)
	}
	if final[0].State != JobDone || final[2].State != JobDone {
		t.Fatalf("neighbours of the failing job ended %q / %q (%s %s), want done",
			final[0].State, final[2].State, final[0].Error, final[2].Error)
	}
	if final[1].State != JobFailed || !strings.Contains(final[1].Error, "j000002.hpck") {
		t.Fatalf("job with the unwritable checkpoint ended %q (err %q), want failed with the I/O error",
			final[1].State, final[1].Error)
	}
}

// TestDrainMidRunResumesBitIdentical: a drain in the middle of a run that
// saves every step reports the job with its last step's checkpoint on disk,
// and resuming it lands on the uninterrupted run's fingerprint.
func TestDrainMidRunResumesBitIdentical(t *testing.T) {
	const problem = `"side": 8, "k": 48, "seed": 17`
	want := baselineHash(t, "{"+problem+"}")

	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, CheckpointDir: dir, CheckpointEvery: 1, DrainGrace: 20 * time.Millisecond})
	_, st := postJob(t, ts, `{`+problem+`, "progress_every": 1, "step_delay": "3ms"}`)
	waitRunning(t, ts, st.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	final := getStatus(t, ts, st.ID)
	if final.State != JobCheckpointed {
		t.Fatalf("drained job ended %q (err %q), want checkpointed", final.State, final.Error)
	}
	snap, err := checkpoint.Load(final.Checkpoint)
	if err != nil {
		t.Fatalf("drain's checkpoint does not load: %v", err)
	}
	if snap.Time != final.Progress.Time {
		t.Fatalf("checkpoint is of step %d, the job stopped at step %d — the last step was not saved", snap.Time, final.Progress.Time)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("checkpoint dir holds %v, want just the checkpoint", entries)
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1})
	defer drainQuiet(t, s2)
	_, st2 := postJob(t, ts2, fmt.Sprintf(`{%s, "resume_from": %q}`, problem, final.Checkpoint))
	done := waitTerminal(t, ts2, st2.ID)
	if done.State != JobDone || done.FinalHash != want {
		t.Fatalf("resumed job ended %q with fingerprint %s, want done with %s", done.State, done.FinalHash, want)
	}
}
