package shard_test

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/mesh"
	"hotpotato/internal/routing"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

func testProblem(t *testing.T, seed int64) (*mesh.Mesh, []*sim.Packet) {
	t.Helper()
	m := mesh.MustNewTorus(2, 8)
	pkts, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return m, pkts
}

func mustShard(t *testing.T, m *mesh.Mesh, pkts []*sim.Packet, opts shard.Options) *shard.Engine {
	t.Helper()
	e, err := shard.New(m, routing.NewRandomGreedy(), pkts, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func sameResult(t *testing.T, want, got *sim.Result, label string) {
	t.Helper()
	if want.Steps != got.Steps || want.Delivered != got.Delivered || want.Total != got.Total ||
		want.Livelocked != got.Livelocked || want.TotalDeflections != got.TotalDeflections ||
		want.TotalHops != got.TotalHops || want.Reroutes != got.Reroutes {
		t.Fatalf("%s: results diverged:\n  want %+v\n  got  %+v", label, want, got)
	}
}

// TestRunPreCancelled: a context cancelled before the run starts stops the
// sharded engine before its first step, exactly like the single engine.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, pkts := testProblem(t, 9)
	for i := 0; i < 20; i++ {
		e := mustShard(t, m, clonePackets(pkts), shard.Options{Grid: shard.Grid{P: 2, Q: 2}, Seed: 9})
		res, err := e.RunCheckpointed(ctx, 1, func(*shard.Checkpoint) error {
			t.Fatal("save called with no progress to save")
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("try %d: err = %v, want context.Canceled", i, err)
		}
		if e.Time() != 0 || res.TotalHops != 0 {
			t.Fatalf("try %d: a pre-cancelled run executed %d step(s), %d hops", i, e.Time(), res.TotalHops)
		}
	}
}

// TestCheckpointResumeAcrossGrids runs a sharded engine halfway, captures a
// coordinated checkpoint, and resumes it in engines with different
// decompositions — including 1x1 — requiring the resumed runs to finish
// with results identical to the uninterrupted run. This is the
// grid-flexible restore contract: a checkpoint is partition-independent
// state.
func TestCheckpointResumeAcrossGrids(t *testing.T) {
	m, pkts := testProblem(t, 9)
	opts := shard.Options{Grid: shard.Grid{P: 2, Q: 2}, Seed: 9, MaxSteps: 3000, DetectLivelock: false}

	full := mustShard(t, m, clonePackets(pkts), opts)
	want, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}

	half := mustShard(t, m, clonePackets(pkts), opts)
	for i := 0; i < 10 && half.Live() > 0; i++ {
		if err := half.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := half.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	for _, g := range []shard.Grid{{P: 2, Q: 2}, {P: 4, Q: 2}, {P: 1, Q: 1}} {
		t.Run(g.String(), func(t *testing.T) {
			ropts := opts
			ropts.Grid = g
			resumed := mustShard(t, m, nil, ropts)
			if err := resumed.Restore(ck); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			if resumed.Time() != half.Time() || resumed.Live() != half.Live() {
				t.Fatalf("restored at t=%d live=%d, want t=%d live=%d",
					resumed.Time(), resumed.Live(), half.Time(), half.Live())
			}
			if rh, hh := resumed.StateHash(), half.StateHash(); rh != hh {
				t.Fatalf("restored state hash %#x, want %#x", rh, hh)
			}
			got, err := resumed.Run()
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, want, got, "resumed run")
		})
	}
}

// TestSaveDirLoadDir exercises the on-disk layout in both formats: the
// manifest commit point, the per-shard part files, pruning of superseded
// step directories, and round-trip fidelity.
func TestSaveDirLoadDir(t *testing.T) {
	m, pkts := testProblem(t, 4)
	opts := shard.Options{Grid: shard.Grid{P: 2, Q: 2}, Seed: 4, MaxSteps: 3000}
	e := mustShard(t, m, pkts, opts)

	for _, format := range []checkpoint.Format{checkpoint.JSON, checkpoint.Binary} {
		t.Run(string(format), func(t *testing.T) {
			dir := t.TempDir()
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			first, err := e.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if err := shard.SaveDir(dir, first, format); err != nil {
				t.Fatal(err)
			}
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			second, err := e.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if err := shard.SaveDir(dir, second, format); err != nil {
				t.Fatal(err)
			}

			// The superseded step directory must be pruned.
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var stepDirs []string
			for _, ent := range entries {
				if ent.IsDir() && strings.HasPrefix(ent.Name(), "step-") {
					stepDirs = append(stepDirs, ent.Name())
				}
			}
			if len(stepDirs) != 1 {
				t.Fatalf("step dirs after two saves: %v, want exactly one", stepDirs)
			}

			loaded, err := shard.LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Manifest.Time != second.Manifest.Time || loaded.Manifest.Live != second.Manifest.Live {
				t.Fatalf("loaded manifest t=%d live=%d, want t=%d live=%d",
					loaded.Manifest.Time, loaded.Manifest.Live, second.Manifest.Time, second.Manifest.Live)
			}
			if len(loaded.Parts) != len(second.Parts) {
				t.Fatalf("loaded %d parts, want %d", len(loaded.Parts), len(second.Parts))
			}
			for i := range loaded.Parts {
				if len(loaded.Parts[i].Packets) != len(second.Parts[i].Packets) {
					t.Fatalf("part %d: %d packets, want %d", i, len(loaded.Parts[i].Packets), len(second.Parts[i].Packets))
				}
			}

			// Restoring the loaded checkpoint reproduces the engine's state.
			resumed := mustShard(t, m, nil, opts)
			if err := resumed.Restore(loaded); err != nil {
				t.Fatal(err)
			}
			if rh, eh := resumed.StateHash(), e.StateHash(); rh != eh {
				t.Fatalf("restored-from-disk hash %#x, want %#x", rh, eh)
			}
		})
	}
}

// TestLoadDirRejectsHostileManifest: a manifest that passes the codec's CRC
// still cannot steer LoadDir out of the directory or into a huge or negative
// allocation. Each bad manifest is written through the real codec, over a
// directory whose parts are intact.
func TestLoadDirRejectsHostileManifest(t *testing.T) {
	m, pkts := testProblem(t, 4)
	e := mustShard(t, m, pkts, shard.Options{Grid: shard.Grid{P: 2, Q: 2}, Seed: 4, MaxSteps: 3000})
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	good, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []checkpoint.Format{checkpoint.JSON, checkpoint.Binary} {
		for _, tc := range []struct {
			name   string
			mutate func(mf *shard.Manifest)
		}{
			{"negative shards", func(mf *shard.Manifest) { mf.Shards = -1 }},
			{"zero shards", func(mf *shard.Manifest) { mf.Shards = 0 }},
			{"huge shards", func(mf *shard.Manifest) { mf.Shards = 1 << 40 }},
			{"shards beyond the grid", func(mf *shard.Manifest) { mf.Shards = 5 }},
			{"huge grid to match", func(mf *shard.Manifest) { mf.Shards, mf.Grid = 1<<40, "1048576x1048576" }},
			{"unparseable grid", func(mf *shard.Manifest) { mf.Grid = "2by2" }},
			{"traversal", func(mf *shard.Manifest) { mf.StepDir = "../.." }},
			{"absolute step dir", func(mf *shard.Manifest) { mf.StepDir = "/tmp" }},
			{"another step's dir", func(mf *shard.Manifest) { mf.StepDir = "step-0000000099" }},
		} {
			t.Run(string(format)+"/"+tc.name, func(t *testing.T) {
				dir := t.TempDir()
				if err := shard.SaveDir(dir, good, format); err != nil {
					t.Fatal(err)
				}
				if _, err := shard.LoadDir(dir); err != nil {
					t.Fatalf("intact directory: %v", err)
				}
				mf := good.Manifest
				mf.StepDir = "step-0000000001"
				tc.mutate(&mf)
				if err := checkpoint.SaveValue(filepath.Join(dir, "MANIFEST.hpck"), &mf, format); err != nil {
					t.Fatal(err)
				}
				_, err := shard.LoadDir(dir)
				if tc.name == "huge grid to match" {
					// Consistent with itself, so it gets as far as the first
					// part that is not on disk — without allocating for 2^40.
					if err == nil {
						t.Fatal("loaded 2^40 shards from a 4-part directory")
					}
					return
				}
				if !errors.Is(err, shard.ErrBadCheckpoint) {
					t.Fatalf("LoadDir = %v, want ErrBadCheckpoint", err)
				}
			})
		}
	}
}

// TestRunCheckpointedKillResume emulates a SIGKILL mid-run: the run dies
// abruptly after its third periodic save (the save hook returns an error,
// so — like a killed process — nothing after the last committed checkpoint
// survives), a second engine loads the directory and resumes, and the
// combined run must match the uninterrupted one exactly.
func TestRunCheckpointedKillResume(t *testing.T) {
	m, pkts := testProblem(t, 13)
	opts := shard.Options{Grid: shard.Grid{P: 2, Q: 2}, Seed: 13, MaxSteps: 3000}

	full := mustShard(t, m, clonePackets(pkts), opts)
	want, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	errKilled := errors.New("killed")
	saves := 0
	killingSave := func(ck *shard.Checkpoint) error {
		if err := shard.SaveDir(dir, ck, checkpoint.Binary); err != nil {
			return err
		}
		if saves++; saves == 3 {
			return errKilled
		}
		return nil
	}

	killed := mustShard(t, m, clonePackets(pkts), opts)
	if _, err := killed.RunCheckpointed(context.Background(), 2, killingSave); !errors.Is(err, errKilled) {
		t.Fatalf("killed run: err = %v, want errKilled", err)
	}

	ck, err := shard.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Manifest.Time != 6 {
		t.Fatalf("last committed checkpoint at t=%d, want 6 (three saves, every 2 steps)", ck.Manifest.Time)
	}
	resumed := mustShard(t, m, nil, opts)
	if err := resumed.Restore(ck); err != nil {
		t.Fatal(err)
	}
	save := func(ck *shard.Checkpoint) error { return shard.SaveDir(dir, ck, checkpoint.Binary) }
	got, err := resumed.RunCheckpointed(context.Background(), 2, save)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got, "kill-resume")
}

// TestRunCheckpointedCancel checks cooperative cancellation on a run that
// can never terminate on its own (the bouncer policy delivers nothing):
// RunCheckpointed must come back with context.Canceled and a final saved
// checkpoint covering all completed steps.
func TestRunCheckpointedCancel(t *testing.T) {
	m := mesh.MustNewTorus(2, 4)
	pkts := []*sim.Packet{sim.NewPacket(0, m.ID([]int{0, 0}), m.ID([]int{2, 0}))}
	e, err := shard.New(m, bouncerPolicy{}, pkts, shard.Options{
		Grid: shard.Grid{P: 2, Q: 2}, Seed: 1, MaxSteps: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	e.StepHook = func(tstep, live int) {
		if tstep == 50 {
			cancel()
		}
	}
	dir := t.TempDir()
	save := func(ck *shard.Checkpoint) error { return shard.SaveDir(dir, ck, checkpoint.Binary) }
	if _, err := e.RunCheckpointed(ctx, 1000, save); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	ck, err := shard.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Manifest.Time != e.Time() {
		t.Fatalf("final save at t=%d, engine stopped at t=%d", ck.Manifest.Time, e.Time())
	}
}

// flakyPolicy panics once, at a given step, in whichever shard routes first
// at that step; every other call delegates. Cloned instances share the
// fired flag, modeling a transient fault that does not recur on retry.
type flakyPolicy struct {
	sim.Policy
	at    int
	fired *atomic.Bool
}

func (f *flakyPolicy) Route(ns *sim.NodeState, out []mesh.Dir, rng *rand.Rand) {
	if ns.Time == f.at && f.fired.CompareAndSwap(false, true) {
		panic("transient shard fault")
	}
	f.Policy.Route(ns, out, rng)
}

func (f *flakyPolicy) Clone() sim.Policy {
	return &flakyPolicy{Policy: f.Policy.(sim.ClonablePolicy).Clone(), at: f.at, fired: f.fired}
}

// TestShardPanicRecovery is the crashed-shard acceptance test: a shard
// panics mid-run, the engine rolls every shard back to the last coordinated
// checkpoint, and the finished run's result matches an uninterrupted run
// bit for bit.
func TestShardPanicRecovery(t *testing.T) {
	m, pkts := testProblem(t, 21)
	opts := shard.Options{Grid: shard.Grid{P: 2, Q: 2}, Seed: 21, MaxSteps: 3000}
	clean := mustShard(t, m, clonePackets(pkts), opts)
	want, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}

	flaky := &flakyPolicy{Policy: routing.NewRandomGreedy(), at: 5, fired: new(atomic.Bool)}
	ropts := opts
	ropts.MaxRecoveries = 2
	e, err := shard.New(m, flaky, clonePackets(pkts), ropts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	got, err := e.RunCheckpointed(context.Background(), 0, nil)
	if err != nil {
		t.Fatalf("recovered run: %v", err)
	}
	if e.Recoveries() != 1 {
		t.Fatalf("recoveries = %d, want 1", e.Recoveries())
	}
	if !flaky.fired.Load() {
		t.Fatal("fault never fired; the test proved nothing")
	}
	sameResult(t, want, got, "recovered run")
}

// brokenPolicy panics at every step >= at: recovery replays into the same
// panic, so the engine must give up after MaxRecoveries and surface
// ErrShardPanic instead of retrying forever.
type brokenPolicy struct {
	sim.Policy
	at int
}

func (b *brokenPolicy) Route(ns *sim.NodeState, out []mesh.Dir, rng *rand.Rand) {
	if ns.Time >= b.at {
		panic("permanent shard fault")
	}
	b.Policy.Route(ns, out, rng)
}

func (b *brokenPolicy) Clone() sim.Policy {
	return &brokenPolicy{Policy: b.Policy.(sim.ClonablePolicy).Clone(), at: b.at}
}

func TestShardRecoveryExhausted(t *testing.T) {
	m, pkts := testProblem(t, 2)
	e, err := shard.New(m, &brokenPolicy{Policy: routing.NewRandomGreedy(), at: 3}, pkts, shard.Options{
		Grid: shard.Grid{P: 2, Q: 2}, Seed: 2, MaxSteps: 3000, MaxRecoveries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Run(); !errors.Is(err, sim.ErrPolicyPanic) {
		t.Fatalf("permanent fault: err = %v, want ErrPolicyPanic", err)
	}
	if e.Recoveries() != 2 {
		t.Fatalf("recoveries = %d, want 2 (exhausted)", e.Recoveries())
	}
}

// TestRestoreGuards: mismatched configuration and torn checkpoints fail
// loudly with ErrBadCheckpoint.
func TestRestoreGuards(t *testing.T) {
	m, pkts := testProblem(t, 6)
	opts := shard.Options{Grid: shard.Grid{P: 2, Q: 2}, Seed: 6, MaxSteps: 3000}
	e := mustShard(t, m, pkts, opts)
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	ck, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("seed-mismatch", func(t *testing.T) {
		bad := opts
		bad.Seed = 7
		fresh := mustShard(t, m, nil, bad)
		if err := fresh.Restore(ck); !errors.Is(err, shard.ErrBadCheckpoint) {
			t.Fatalf("err = %v, want ErrBadCheckpoint", err)
		}
	})
	t.Run("mesh-mismatch", func(t *testing.T) {
		other := mesh.MustNew(2, 8) // no wrap
		fresh := mustShard(t, other, nil, opts)
		if err := fresh.Restore(ck); !errors.Is(err, shard.ErrBadCheckpoint) {
			t.Fatalf("err = %v, want ErrBadCheckpoint", err)
		}
	})
	t.Run("torn-parts", func(t *testing.T) {
		torn := *ck
		torn.Parts = append([]shard.ShardPart(nil), ck.Parts...)
		torn.Parts[1].Time = ck.Manifest.Time + 1
		fresh := mustShard(t, m, nil, opts)
		if err := fresh.Restore(&torn); !errors.Is(err, shard.ErrBadCheckpoint) {
			t.Fatalf("err = %v, want ErrBadCheckpoint", err)
		}
	})
	// A packet whose source or destination is not a node of the mesh would
	// load and then panic the next route, which indexes the tables with the
	// destination; Restore refuses it as sim.Restore does.
	for _, tc := range []struct {
		name   string
		mutate func(ps *sim.PacketState)
	}{
		{"off-mesh-destination", func(ps *sim.PacketState) { ps.Dst = mesh.NodeID(m.Size()) }},
		{"negative-destination", func(ps *sim.PacketState) { ps.Dst = -1 }},
		{"off-mesh-source", func(ps *sim.PacketState) { ps.Src = mesh.NodeID(m.Size() + 5) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := *ck
			bad.Parts = append([]shard.ShardPart(nil), ck.Parts...)
			bad.Parts[1].Packets = append([]sim.PacketState(nil), ck.Parts[1].Packets...)
			tc.mutate(&bad.Parts[1].Packets[0])
			fresh := mustShard(t, m, nil, opts)
			if err := fresh.Restore(&bad); !errors.Is(err, shard.ErrBadCheckpoint) {
				t.Fatalf("err = %v, want ErrBadCheckpoint", err)
			}
		})
	}
	t.Run("used-engine", func(t *testing.T) {
		if err := e.Restore(ck); !errors.Is(err, shard.ErrBadCheckpoint) {
			t.Fatalf("err = %v, want ErrBadCheckpoint", err)
		}
	})
	t.Run("missing-manifest", func(t *testing.T) {
		if _, err := shard.LoadDir(filepath.Join(t.TempDir(), "nope")); err == nil {
			t.Fatal("want error for missing directory")
		}
	})
}

// TestLoadRejectsDuplicateIDs is the sharded counterpart of sim's Restore
// checks: a checkpoint or a worker part that carries one packet ID twice is
// refused, and a part that overfills a node is refused at the packet that
// does not fit, before it is written anywhere.
func TestLoadRejectsDuplicateIDs(t *testing.T) {
	m, pkts := testProblem(t, 6)
	opts := shard.Options{Grid: shard.Grid{P: 2, Q: 2}, Seed: 6, MaxSteps: 3000}
	e := mustShard(t, m, pkts, opts)
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	ck, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("checkpoint", func(t *testing.T) {
		dup := *ck
		dup.Parts = append([]shard.ShardPart(nil), ck.Parts...)
		dup.Parts[1].Packets = append([]sim.PacketState(nil), ck.Parts[1].Packets...)
		dup.Parts[1].Packets[0].ID = ck.Parts[0].Packets[0].ID
		fresh := mustShard(t, m, nil, opts)
		if err := fresh.Restore(&dup); !errors.Is(err, shard.ErrBadCheckpoint) {
			t.Fatalf("err = %v, want ErrBadCheckpoint", err)
		}
	})

	g := shard.Grid{P: 2, Q: 1}
	node, err := shard.NewNode(m, routing.NewRandomGreedy(), g, []int{0}, 6, sim.ValidateOff)
	if err != nil {
		t.Fatal(err)
	}
	at := func(id int, n mesh.NodeID) sim.PacketState {
		return sim.CapturePacket(sim.NewPacket(id, n, m.ID([]int{6, 6})))
	}
	full := m.ID([]int{1, 1}) // owned by shard 0, out-degree 4
	t.Run("part", func(t *testing.T) {
		part := []sim.PacketState{at(5, full), at(5, full+1)}
		if err := node.LoadShard(0, part); !errors.Is(err, shard.ErrBadCheckpoint) {
			t.Fatalf("err = %v, want ErrBadCheckpoint", err)
		}
	})
	t.Run("over-degree", func(t *testing.T) {
		var part []sim.PacketState
		for id := 0; id <= m.Degree(full); id++ {
			part = append(part, at(id, full))
		}
		if err := node.LoadShard(0, part); !errors.Is(err, shard.ErrBadCheckpoint) {
			t.Fatalf("err = %v, want ErrBadCheckpoint", err)
		}
		words, err := node.HashWords(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(words); i += 2 {
			if n := mesh.NodeID(words[i] >> 32); n != full {
				t.Fatalf("a packet of node %d's refused part is queued at node %d", full, n)
			}
		}
		if len(words) != 2*m.Degree(full) {
			t.Fatalf("node %d holds %d packets after the refused load, want the %d that fit", full, len(words)/2, m.Degree(full))
		}
	})
}

// TestLoadShardRejectsOffMeshIDs: a worker part whose packet has a source or
// destination outside the mesh is refused with ErrBadCheckpoint, and the
// node routes afterwards without panicking — before the check, such a part
// loaded and the next Route panicked inside the good-direction lookup,
// which a dshard worker goroutine does not recover.
func TestLoadShardRejectsOffMeshIDs(t *testing.T) {
	m := mesh.MustNewTorus(2, 8)
	node, err := shard.NewNode(m, routing.NewRandomGreedy(), shard.Grid{P: 2, Q: 1}, []int{0}, 6, sim.ValidateOff)
	if err != nil {
		t.Fatal(err)
	}
	src := m.ID([]int{1, 1}) // owned by shard 0
	for _, tc := range []struct {
		name     string
		src, dst mesh.NodeID
	}{
		{"destination-past-the-end", src, mesh.NodeID(2 * m.Size())},
		{"negative-destination", src, -3},
		{"source-past-the-end", mesh.NodeID(m.Size()), m.ID([]int{6, 6})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps := sim.CapturePacket(sim.NewPacket(1, src, m.ID([]int{6, 6})))
			ps.Src, ps.Dst = tc.src, tc.dst
			ok := sim.CapturePacket(sim.NewPacket(0, src, m.ID([]int{5, 5})))
			if err := node.LoadShard(0, []sim.PacketState{ok, ps}); !errors.Is(err, shard.ErrBadCheckpoint) {
				t.Fatalf("err = %v, want ErrBadCheckpoint", err)
			}
			if _, err := node.Route(0); err != nil {
				t.Fatalf("route after the refused load: %v", err)
			}
		})
	}
}
