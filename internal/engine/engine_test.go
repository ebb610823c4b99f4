package engine_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/engine"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
)

// execution is one way to run a Spec: which engine, on which grid.
type execution struct {
	name string
	grid shard.Grid
	dist int
}

var executions = []execution{
	{"single", shard.Grid{}, 0},
	{"1x1", shard.Grid{P: 1, Q: 1}, 0},
	{"2x1", shard.Grid{P: 2, Q: 1}, 0},
	{"2x2", shard.Grid{P: 2, Q: 2}, 0},
	{"dist:2", shard.Grid{P: 2, Q: 2}, 2},
}

func (x execution) of(s engine.Spec) engine.Spec {
	s.Grid, s.DistWorkers = x.grid, x.dist
	return s
}

func mustOpen(t *testing.T, s engine.Spec) *engine.Run {
	t.Helper()
	r, err := engine.Open(s)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(r.Close)
	return r
}

// finish opens the Spec and runs it to its natural end.
func finish(t *testing.T, s engine.Spec) (*sim.Result, *engine.Run) {
	t.Helper()
	r := mustOpen(t, s)
	res, err := r.Run(context.Background(), nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, r
}

func arrivals(t *testing.T, s string) *spec.ArrivalSpec {
	t.Helper()
	as, err := spec.ParseArrivalSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

// TestOpenParity is the opener's oracle: one Spec opened on every engine
// that accepts it yields the identical Result and — stopped mid-flight by
// the step budget, so the hash covers a live configuration — the identical
// StateHash; and a periodic checkpoint written by any of them resumes on any
// other that shares its format to the uninterrupted Result.
func TestOpenParity(t *testing.T) {
	n := 0
	for _, policy := range []string{"restricted-det", "random"} {
		for _, torus := range []bool{false, true} {
			for _, arr := range []string{"", "poisson:rate=0.03,until=25"} {
				problem := n
				n++
				t.Run(fmt.Sprintf("%s/torus=%v/arrivals=%v", policy, torus, arr != ""), func(t *testing.T) {
					base := engine.Spec{
						Dim: 2, Side: 10, Torus: torus, Policy: policy, Seed: int64(11 + problem),
						Workload: spec.WorkloadSpec{Name: "full-load", Arrivals: arrivals(t, arr)},
					}
					var accepted []execution
					for _, x := range executions {
						if err := x.of(base).Validate(); err == nil {
							accepted = append(accepted, x)
						} else if !errors.Is(err, engine.ErrUnsupported) || x.dist == 0 || arr == "" {
							t.Fatalf("%s refused: %v", x.name, err)
						}
					}

					cut := base
					cut.MaxSteps = 4
					wantCut, ref := finish(t, cut)
					if !wantCut.HitMaxSteps {
						t.Fatalf("the 4-step run ended on its own: %+v", wantCut)
					}
					want, _ := finish(t, base)
					dir := t.TempDir()
					for _, x := range accepted {
						gotCut, r := finish(t, x.of(cut))
						if !reflect.DeepEqual(gotCut, wantCut) || r.StateHash() != ref.StateHash() {
							t.Fatalf("%s at step 4: result %+v hash %016x, single engine %+v hash %016x",
								x.name, gotCut, r.StateHash(), wantCut, ref.StateHash())
						}
						s := x.of(base)
						s.CheckpointPath = filepath.Join(dir, x.name+s.CheckpointExt())
						s.CheckpointEvery = 3
						got, r := finish(t, s)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: result %+v, single engine %+v", x.name, got, want)
						}
						if r.Saved() != s.CheckpointPath || !engine.HasCheckpoint(s.CheckpointPath) {
							t.Fatalf("%s: Saved() = %q, checkpoint on disk = %v", x.name, r.Saved(), engine.HasCheckpoint(s.CheckpointPath))
						}
					}
					// Every writer's checkpoint resumes on another engine of its
					// format; the offset rotates so the problems together cover
					// every ordered pair.
					sharded := accepted[1:]
					for i, w := range sharded {
						reader := sharded[(i+1+problem%(len(sharded)-1))%len(sharded)]
						s := reader.of(base)
						s.ResumeFrom = filepath.Join(dir, w.name+s.CheckpointExt())
						resumed := mustOpen(t, s)
						if at := resumed.Progress().Time; at == 0 || at%3 != 0 {
							t.Fatalf("%s's checkpoint is of step %d, want a mid-run multiple of 3", w.name, at)
						}
						got, err := resumed.Run(context.Background(), nil)
						if err != nil || !reflect.DeepEqual(got, want) {
							t.Fatalf("%s -> %s: resumed to %+v (err %v), uninterrupted %+v", w.name, reader.name, got, err, want)
						}
					}
					s := base
					s.ResumeFrom = filepath.Join(dir, "single.hpck")
					if got, _ := finish(t, s); !reflect.DeepEqual(got, want) {
						t.Fatalf("single -> single: resumed to %+v, uninterrupted %+v", got, want)
					}
					// The formats do not mix, and the refusal is the typed one.
					s.ResumeFrom = filepath.Join(dir, "2x2.shards")
					if _, err := engine.Open(s); !errors.Is(err, engine.ErrBadCheckpoint) {
						t.Fatalf("single engine resuming a shard directory: err = %v, want ErrBadCheckpoint", err)
					}
				})
			}
		}
	}
}

// TestResumeRefusesDuplicateIDs: a .shards checkpoint that holds one packet
// ID twice — in two parts, or live and among the finalized packets — is
// refused alike by the in-process and the distributed engine: the same
// ErrBadCheckpoint, the same words.
func TestResumeRefusesDuplicateIDs(t *testing.T) {
	base := engine.Spec{
		Dim: 2, Side: 10, Policy: "random", Seed: 5, MaxSteps: 6, Grid: shard.Grid{P: 2, Q: 1},
		Workload: spec.WorkloadSpec{Name: "full-load"},
	}
	dir := t.TempDir()
	w := base
	w.CheckpointPath, w.CheckpointEvery = filepath.Join(dir, "w.shards"), 6
	finish(t, w)
	tampers := map[string]func(ck *shard.Checkpoint) int{
		"two parts": func(ck *shard.Checkpoint) int {
			id := ck.Parts[0].Packets[0].ID
			ck.Parts[1].Packets[0].ID = id
			return id
		},
		"live and finalized": func(ck *shard.Checkpoint) int {
			id := ck.Manifest.Finalized[0].ID
			ck.Parts[1].Packets[0].ID = id
			return id
		},
	}
	for name, tamper := range tampers {
		t.Run(name, func(t *testing.T) {
			ck, err := shard.LoadDir(w.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(ck.Manifest.Finalized) == 0 || len(ck.Parts[0].Packets) == 0 || len(ck.Parts[1].Packets) == 0 {
				t.Fatalf("step-%d checkpoint has %d finalized packets and parts of %d and %d",
					ck.Manifest.Time, len(ck.Manifest.Finalized), len(ck.Parts[0].Packets), len(ck.Parts[1].Packets))
			}
			id := tamper(ck)
			s := base
			s.ResumeFrom = filepath.Join(t.TempDir(), "dup.shards")
			if err := shard.SaveDir(s.ResumeFrom, ck, checkpoint.Binary); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("packet id %d occurs more than once", id)
			var msgs []string
			for _, dist := range []int{0, 2} {
				s.DistWorkers = dist
				r, err := engine.Open(s)
				if err == nil {
					r.Close()
					t.Fatalf("dist=%d: checkpoint with packet id %d twice accepted", dist, id)
				}
				if !errors.Is(err, engine.ErrBadCheckpoint) || !errors.Is(err, shard.ErrBadCheckpoint) || !strings.Contains(err.Error(), want) {
					t.Fatalf("dist=%d: err %v, want ErrBadCheckpoint: %s", dist, err, want)
				}
				msgs = append(msgs, err.Error())
			}
			if msgs[0] != msgs[1] {
				t.Errorf("-shards and -dist refuse differently:\n  %s\n  %s", msgs[0], msgs[1])
			}
		})
	}
}

// TestRunPreCancelled: on every engine a context cancelled before Run
// executes zero steps and returns context.Canceled, and with a checkpoint
// path set the initial state is on disk — the early-stop rule — from where
// the run resumes to the uninterrupted run's state.
func TestRunPreCancelled(t *testing.T) {
	base := engine.Spec{
		Dim: 2, Side: 10, Policy: "random", Seed: 5, MaxSteps: 4,
		Workload: spec.WorkloadSpec{Name: "full-load"},
	}
	want, ref := finish(t, base)
	if !want.HitMaxSteps {
		t.Fatalf("the 4-step run ended on its own: %+v", want)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, x := range executions {
		t.Run(x.name, func(t *testing.T) {
			s := x.of(base)
			s.CheckpointPath = filepath.Join(t.TempDir(), "ck"+s.CheckpointExt())
			r := mustOpen(t, s)
			steps := 0
			res, err := r.Run(cancelled, func() { steps++ })
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if steps != 0 || res.TotalHops != 0 || r.Progress().Time != 0 {
				t.Fatalf("a pre-cancelled run executed %d step(s) (%d hops, time %d)", steps, res.TotalHops, r.Progress().Time)
			}
			if r.Saved() != s.CheckpointPath || !engine.HasCheckpoint(s.CheckpointPath) {
				t.Fatalf("Saved() = %q, checkpoint on disk = %v: the initial state was not kept", r.Saved(), engine.HasCheckpoint(s.CheckpointPath))
			}
			s.ResumeFrom = s.CheckpointPath
			got, resumed := finish(t, s)
			if !reflect.DeepEqual(got, want) || resumed.StateHash() != ref.StateHash() {
				t.Fatalf("resumed to %+v hash %016x, uninterrupted %+v hash %016x", got, resumed.StateHash(), want, ref.StateHash())
			}
			if err := engine.RemoveCheckpoint(s.CheckpointPath); err != nil || engine.HasCheckpoint(s.CheckpointPath) {
				t.Fatalf("RemoveCheckpoint: err %v, still there = %v", err, engine.HasCheckpoint(s.CheckpointPath))
			}
		})
	}
}

// TestRemoveCheckpointOrphanedTemps: a save killed between creating its
// temporary file and the rename leaves <path>.tmp-* behind; RemoveCheckpoint
// takes such files with the checkpoint — also when the kill hit the first
// save, so there is no checkpoint — and leaves other checkpoints' files alone.
func TestRemoveCheckpointOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j000001.hpck")
	orphans := []string{path + ".tmp-123", path + ".tmp-456"}
	others := []string{filepath.Join(dir, "j000002.hpck"), filepath.Join(dir, "j000002.hpck.tmp-789"), path + "x.tmp-1"}
	write := func(paths ...string) {
		for _, p := range paths {
			if err := os.WriteFile(p, []byte("HPCK"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	exists := func(p string) bool { _, err := os.Stat(p); return err == nil }

	write(path)
	write(orphans...)
	write(others...)
	if err := engine.RemoveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	for _, p := range append([]string{path}, orphans...) {
		if exists(p) {
			t.Errorf("%s survived RemoveCheckpoint", filepath.Base(p))
		}
	}
	for _, p := range others {
		if !exists(p) {
			t.Errorf("RemoveCheckpoint of %s removed %s", filepath.Base(path), filepath.Base(p))
		}
	}

	write(orphans[0])
	if err := engine.RemoveCheckpoint(path); err != nil || exists(orphans[0]) {
		t.Fatalf("orphan without a checkpoint: err %v, still there = %v", err, exists(orphans[0]))
	}
}

// TestValidateTable pins the one compatibility table: which feature
// combinations each engine refuses, always as ErrUnsupported. The frontends
// assert the same rows in their own dialects (JobSpec JSON, hotpotato and
// shardcoord flags).
func TestValidateTable(t *testing.T) {
	g22 := shard.Grid{P: 2, Q: 2}
	faults := &spec.FaultConfig{Rate: 0.01}
	arr := arrivals(t, "poisson:rate=0.03,until=25")
	for _, tc := range []struct {
		name   string
		mut    func(*engine.Spec)
		refuse string // "" = accepted
	}{
		{"single takes everything", func(s *engine.Spec) { s.Dim, s.Side, s.Fault, s.Workload.Arrivals = 3, 4, faults, arr }, ""},
		{"shards with arrivals", func(s *engine.Spec) { s.Grid, s.Workload.Arrivals = g22, arr }, ""},
		{"shards with an idle fault config", func(s *engine.Spec) { s.Grid, s.Fault = g22, &spec.FaultConfig{Repair: 0.1} }, ""},
		{"dist", func(s *engine.Spec) { s.Grid, s.DistWorkers = g22, 4 }, ""},
		{"shards on dim 3", func(s *engine.Spec) { s.Grid, s.Dim, s.Side = g22, 3, 4 }, "shards need dim 2"},
		{"shards with faults", func(s *engine.Spec) { s.Grid, s.Fault = g22, faults }, "sharded jobs do not support fault injection"},
		{"dist without shards", func(s *engine.Spec) { s.DistWorkers = 2 }, "dist workers need shards"},
		{"dist wider than the grid", func(s *engine.Spec) { s.Grid, s.DistWorkers = g22, 5 }, "5 dist workers exceed the 2x2 grid's 4 shards"},
		// bench/run.go greps the daemon's answer for this exact text.
		{"dist with arrivals", func(s *engine.Spec) { s.Grid, s.DistWorkers, s.Workload.Arrivals = g22, 2, arr }, "distributed jobs do not support arrivals"},
	} {
		s := engine.Spec{Dim: 2, Side: 8, Policy: "restricted", K: 8, Seed: 1, Workload: spec.WorkloadSpec{Name: "uniform"}}
		tc.mut(&s)
		err := s.Validate()
		switch {
		case tc.refuse == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.refuse != "" && (!errors.Is(err, engine.ErrUnsupported) || !strings.Contains(err.Error(), tc.refuse)):
			t.Errorf("%s: err = %v, want ErrUnsupported mentioning %q", tc.name, err, tc.refuse)
		}
		r, oerr := engine.Open(s)
		if (oerr == nil) != (err == nil) {
			t.Errorf("%s: Open err = %v, Validate err = %v", tc.name, oerr, err)
		}
		if r != nil {
			r.Close()
		}
	}
	// A value that is simply wrong is not a compatibility refusal.
	bad := engine.Spec{Dim: 2, Side: 8, Policy: "nope", K: 8, Workload: spec.WorkloadSpec{Name: "uniform"}}
	if err := bad.Validate(); err == nil || errors.Is(err, engine.ErrUnsupported) {
		t.Errorf("unknown policy: err = %v, want a plain error", err)
	}
}
