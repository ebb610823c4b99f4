package engine_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/engine"
	"hotpotato/internal/shard"
	"hotpotato/internal/spec"
)

// writerGoroutines reports whether a checkpoint writer's goroutine is still
// running, waiting briefly for one that is returning from its last write.
func writerGoroutines(t *testing.T) bool {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		n := runtime.Stack(buf, true)
		if !strings.Contains(string(buf[:n]), "engine.(*writer[") || time.Now().After(deadline) {
			return strings.Contains(string(buf[:n]), "engine.(*writer[")
		}
	}
}

// TestCheckpointBehindTheRun: a run that captures at every step, on the
// single engine in both formats and on a 2x1 shard grid, finds its last
// capture on disk once Run returns — whether the run ends by itself or is
// cancelled mid-flight — and that file resumes to the uninterrupted run's
// Result and StateHash. No writer goroutine outlives Run.
func TestCheckpointBehindTheRun(t *testing.T) {
	base := engine.Spec{
		Dim: 2, Side: 10, Policy: "random", Seed: 7,
		Workload: spec.WorkloadSpec{Name: "full-load"},
	}
	want, ref := finish(t, base)
	for _, tc := range []struct {
		name   string
		grid   shard.Grid
		format string
	}{
		{"sim/binary", shard.Grid{}, "binary"},
		{"sim/json", shard.Grid{}, "json"},
		{"2x1/binary", shard.Grid{P: 2, Q: 1}, "binary"},
	} {
		for _, stopAt := range []int{0, 5} { // 0: the run ends by itself
			t.Run(fmt.Sprintf("%s/stop-at=%d", tc.name, stopAt), func(t *testing.T) {
				s := base
				s.Grid, s.CheckpointFormat, s.CheckpointEvery = tc.grid, tc.format, 1
				s.CheckpointPath = filepath.Join(t.TempDir(), "ck"+s.CheckpointExt())
				r := mustOpen(t, s)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				steps := 0
				_, err := r.Run(ctx, func() {
					if steps++; steps == stopAt {
						cancel()
						// The stop flag is raised by a watcher goroutine; let it
						// run before the next step.
						time.Sleep(20 * time.Millisecond)
					}
				})
				if stopAt == 0 && err != nil || stopAt > 0 && !errors.Is(err, context.Canceled) {
					t.Fatalf("Run: %v", err)
				}
				if writerGoroutines(t) {
					t.Fatal("a checkpoint writer goroutine outlived Run")
				}
				if r.Saved() != s.CheckpointPath {
					t.Fatalf("Saved() = %q, want %q", r.Saved(), s.CheckpointPath)
				}
				at, hash := r.Progress().Time, r.StateHash()

				s.ResumeFrom, s.CheckpointPath = s.CheckpointPath, ""
				resumed := mustOpen(t, s)
				if got := resumed.Progress().Time; got != at || resumed.StateHash() != hash {
					t.Fatalf("checkpoint is of step %d hash %016x, the run stopped at step %d hash %016x",
						got, resumed.StateHash(), at, hash)
				}
				got, err := resumed.Run(context.Background(), nil)
				if err != nil || !reflect.DeepEqual(got, want) || resumed.StateHash() != ref.StateHash() {
					t.Fatalf("resumed to %+v hash %016x (err %v), uninterrupted %+v hash %016x",
						got, resumed.StateHash(), err, want, ref.StateHash())
				}
			})
		}
	}
}

// TestCheckpointWriteErrorFailsRun: a checkpoint that cannot be written —
// its path is a non-empty directory, so the rename fails — fails the run
// with the I/O error and the path, whether the run captures many more times
// after the failed write or ends right after its first capture.
func TestCheckpointWriteErrorFailsRun(t *testing.T) {
	base := engine.Spec{
		Dim: 2, Side: 10, Policy: "random", Seed: 7,
		Workload: spec.WorkloadSpec{Name: "full-load"},
	}
	for name, mut := range map[string]func(*engine.Spec){
		"every step":             func(s *engine.Spec) { s.CheckpointEvery = 1 },
		"one capture, then done": func(s *engine.Spec) { s.CheckpointEvery, s.MaxSteps = 4, 4 },
	} {
		t.Run(name, func(t *testing.T) {
			s := base
			mut(&s)
			s.CheckpointPath = filepath.Join(t.TempDir(), "ck.hpck")
			if err := os.MkdirAll(filepath.Join(s.CheckpointPath, "occupied"), 0o755); err != nil {
				t.Fatal(err)
			}
			r := mustOpen(t, s)
			res, err := r.Run(context.Background(), nil)
			if err == nil || res != nil || !strings.Contains(err.Error(), "sim: checkpoint save: ") ||
				!strings.Contains(err.Error(), s.CheckpointPath) {
				t.Fatalf("Run = %+v, %v; want no result and the save error naming %s", res, err, s.CheckpointPath)
			}
			if writerGoroutines(t) {
				t.Fatal("a checkpoint writer goroutine outlived Run")
			}
			if r.Saved() != "" {
				t.Fatalf("Saved() = %q after a failed write", r.Saved())
			}
		})
	}
}

// BenchmarkDurableJob is a durable daemon job without the daemon: a 32²
// torus at full load (two packets per node) resumed from its step-8
// checkpoint, run to the end saving every 8 steps into a temporary
// directory, then closed and its checkpoint removed. It reports the job's
// wall time and the bytes it allocates.
func BenchmarkDurableJob(b *testing.B) {
	dir := b.TempDir()
	s := engine.Spec{
		Dim: 2, Side: 32, Torus: true, Policy: "fixed", Seed: 1,
		Workload: spec.WorkloadSpec{Name: "full-load"}, // two packets per node
	}
	r, err := engine.Open(s)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := r.Sim().Step(); err != nil {
			b.Fatal(err)
		}
	}
	s.ResumeFrom = filepath.Join(dir, "t8.hpck")
	if err := checkpoint.SaveValue(s.ResumeFrom, r.Sim(), checkpoint.Binary); err != nil {
		b.Fatal(err)
	}
	r.Close()
	s.CheckpointPath, s.CheckpointEvery = filepath.Join(dir, "job.hpck"), 8

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		r, err := engine.Open(s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
		r.Close()
		if err := engine.RemoveCheckpoint(s.CheckpointPath); err != nil {
			b.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(elapsed.Microseconds())/1e3/float64(b.N), "ms/job")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N), "B/job")
}
