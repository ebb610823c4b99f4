package server

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// TestDistributedJobLifecycle runs the same routing problem as a distributed
// job (coordinator plus goroutine workers over loopback TCP), as an in-process sharded
// job, and as a plain single-engine job, and demands identical final-state
// fingerprints — the bit-identity contract of internal/dshard observed end
// to end through the HTTP API.
func TestDistributedJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	const problem = `"side": 8, "seed": 3, "policy": "random", "workload": "full-load", "progress_every": 2`
	resp, dist := postJob(t, ts, `{`+problem+`, "shards": "2x2", "dist_workers": 2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST distributed = %d, want 202", resp.StatusCode)
	}
	_, sharded := postJob(t, ts, `{`+problem+`, "shards": "2x2"}`)
	_, plain := postJob(t, ts, `{`+problem+`}`)

	distDone := waitTerminal(t, ts, dist.ID)
	shardedDone := waitTerminal(t, ts, sharded.ID)
	plainDone := waitTerminal(t, ts, plain.ID)
	if distDone.State != JobDone {
		t.Fatalf("distributed job finished %q (err %q), want done", distDone.State, distDone.Error)
	}
	if distDone.Result == nil || distDone.Result.Delivered != distDone.Result.Total {
		t.Fatalf("distributed result %+v, want all delivered", distDone.Result)
	}
	if distDone.FinalHash == "" || distDone.FinalHash != shardedDone.FinalHash {
		t.Fatalf("final hash: distributed %q, sharded %q — distributed runs must be bit-identical",
			distDone.FinalHash, shardedDone.FinalHash)
	}
	if distDone.FinalHash != plainDone.FinalHash {
		t.Fatalf("final hash: distributed %q, single %q", distDone.FinalHash, plainDone.FinalHash)
	}
	if distDone.Result.Steps != plainDone.Result.Steps {
		t.Fatalf("steps: distributed %d, single %d", distDone.Result.Steps, plainDone.Result.Steps)
	}

	// The stream must carry progress epochs and close with a summary.
	events := readStream(t, ts, dist.ID)
	progress := 0
	for _, ev := range events {
		if ev.Type == "progress" {
			progress++
		}
	}
	if progress == 0 {
		t.Error("distributed job's stream carried no progress events")
	}
	if len(events) == 0 || events[len(events)-1].Type != "summary" {
		t.Error("distributed job's stream did not close with a summary")
	}
}

// TestDistributedJobRejects covers admission validation of distributed specs.
func TestDistributedJobRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, spec := range map[string]string{
		"without shards":     `{"side": 8, "dist_workers": 2}`,
		"more than shards":   `{"side": 8, "shards": "2x2", "dist_workers": 5}`,
		"negative":           `{"side": 8, "shards": "2x2", "dist_workers": -1}`,
		"with plain workers": `{"side": 8, "shards": "2x2", "dist_workers": 2, "workers": 2}`,
	} {
		resp, _ := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: POST = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestDistributedDrainCheckpointResume interrupts a distributed job with
// Drain and resumes the saved coordinated checkpoint — on a different shard
// grid with a different worker count, and once on the plain in-process
// sharded engine — expecting the same outcome as an unbroken run. This is
// the cross-engine interop contract of the .shards directory format.
func TestDistributedDrainCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{Workers: 1, CheckpointDir: dir, DrainGrace: 30 * time.Millisecond})

	const problem = `"side": 6, "seed": 9, "policy": "random", "workload": "full-load", "progress_every": 1, "max_steps": 100000`
	_, st := postJob(t, ts, `{`+problem+`, "shards": "2x2", "dist_workers": 2, "step_delay": "5ms"}`)
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
		t.Fatalf("distributed checkpoint path %q, want a .shards directory", final.Checkpoint)
	}
	if fi, err := os.Stat(final.Checkpoint); err != nil || !fi.IsDir() {
		t.Fatalf("checkpoint directory: %v (isDir=%v)", err, fi != nil && fi.IsDir())
	}

	// The uninterrupted fingerprint to beat, computed on a second server.
	s2, ts2 := newTestServer(t, Config{Workers: 1})
	_, ref := postJob(t, ts2, `{`+problem+`, "shards": "2x2"}`)
	refDone := waitTerminal(t, ts2, ref.ID)

	// Resume distributed on a wider grid with more workers.
	resume := fmt.Sprintf(`{%s, "shards": "3x2", "dist_workers": 3, "resume_from": %q}`, problem, final.Checkpoint)
	_, st2 := postJob(t, ts2, resume)
	done := waitTerminal(t, ts2, st2.ID)
	if done.State != JobDone {
		t.Fatalf("resumed job finished %q (err %q), want done", done.State, done.Error)
	}
	if done.FinalHash == "" || done.FinalHash != refDone.FinalHash {
		t.Fatalf("final hash: resumed-distributed %q, uninterrupted %q — recovery must be bit-identical",
			done.FinalHash, refDone.FinalHash)
	}

	// And resume the same distributed checkpoint on the in-process engine.
	resumePlain := fmt.Sprintf(`{%s, "shards": "2x2", "resume_from": %q}`, problem, final.Checkpoint)
	_, st3 := postJob(t, ts2, resumePlain)
	done3 := waitTerminal(t, ts2, st3.ID)
	if done3.State != JobDone {
		t.Fatalf("in-process resume finished %q (err %q), want done", done3.State, done3.Error)
	}
	if done3.FinalHash != refDone.FinalHash {
		t.Fatalf("final hash: distributed checkpoint resumed in-process %q, uninterrupted %q",
			done3.FinalHash, refDone.FinalHash)
	}
	drainQuiet(t, s2)
}
