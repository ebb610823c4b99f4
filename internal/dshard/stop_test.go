package dshard_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"hotpotato/internal/dshard"
	"hotpotato/internal/mesh"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// The fused step routes t+1 on the same request that applies t, so every
// way a run ends leaves one routed-but-unapplied step behind on the
// workers. These tests pin that it never shows: not in the Result (its
// MaxNodeLoad/Reroutes partials are dropped), not in the state hash, not in
// the checkpoint a resume would start from.

const (
	stopSide = 12
	stopSeed = 13
)

var stopGrid = shard.Grid{P: 2, Q: 2}

func stopPackets(t *testing.T) []*sim.Packet {
	t.Helper()
	pkts, err := workload.FullLoad(mesh.MustNewTorus(2, stopSide), 2, rand.New(rand.NewSource(stopSeed)))
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

// stopRef is the in-process sharded engine on the same problem and grid.
func stopRef(t *testing.T, policy string, pkts []*sim.Packet, maxSteps int) *shard.Engine {
	t.Helper()
	pol, err := testPolicies(policy)
	if err != nil {
		t.Fatal(err)
	}
	e, err := shard.New(mesh.MustNewTorus(2, stopSide), pol, clonePackets(pkts), shard.Options{
		Grid: stopGrid, MaxSteps: maxSteps, Seed: stopSeed, DetectLivelock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func stopCoord(t *testing.T, policy string, pkts []*sim.Packet, maxSteps int, opts dshard.Options) *dshard.Coordinator {
	t.Helper()
	if opts.Spawn == nil {
		opts.Spawn = dshard.InProcessSpawner(dshard.WorkerOptions{Token: opts.Token, Policies: testPolicies})
	}
	c, err := dshard.New(dshard.Spec{
		Side: stopSide, Wrap: true, Policy: policy, Grid: stopGrid,
		Seed: stopSeed, MaxSteps: maxSteps, DetectLivelock: true,
	}, clonePackets(pkts), opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// sameStop compares a finished coordinator with the reference engine
// standing at the same time.
func sameStop(t *testing.T, c *dshard.Coordinator, res *sim.Result, ref *shard.Engine, refRes *sim.Result) {
	t.Helper()
	if c.Time() != ref.Time() {
		t.Fatalf("distributed run stands at step %d, reference at %d", c.Time(), ref.Time())
	}
	if !reflect.DeepEqual(res, refRes) {
		t.Errorf("results diverged:\n  distributed %+v\n  reference   %+v", res, refRes)
	}
	if got, want := c.StateHash(), ref.StateHash(); got != want {
		t.Errorf("state hash: distributed %#x, reference %#x", got, want)
	}
}

// sameCheckpoint compares the directory a distributed run left behind with
// the reference engine's own capture. The two list finalized packets in
// different orders (arrival vs injection); everything else must match
// field for field, the parts packet for packet.
func sameCheckpoint(t *testing.T, dir string, ref *shard.Engine) {
	t.Helper()
	got, err := shard.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	want, err := ref.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	norm := func(m shard.Manifest) shard.Manifest {
		m.Recoveries, m.StepDir = 0, ""
		m.Finalized = slices.Clone(m.Finalized)
		slices.SortFunc(m.Finalized, func(a, b sim.PacketState) int { return a.ID - b.ID })
		if len(m.Finalized) == 0 {
			m.Finalized = nil
		}
		if len(m.Seen) == 0 {
			m.Seen = nil
		}
		return m
	}
	if g, w := norm(got.Manifest), norm(want.Manifest); !reflect.DeepEqual(g, w) {
		t.Errorf("manifests diverged:\n  distributed %+v\n  reference   %+v", g, w)
	}
	if len(got.Parts) != len(want.Parts) {
		t.Fatalf("%d parts, reference %d", len(got.Parts), len(want.Parts))
	}
	for i := range got.Parts {
		if !reflect.DeepEqual(got.Parts[i], want.Parts[i]) {
			t.Errorf("part %d diverged (%d packets, reference %d)", i, len(got.Parts[i].Packets), len(want.Parts[i].Packets))
		}
	}
}

// stepTo advances the reference to time until, by hand.
func stepTo(t *testing.T, ref *shard.Engine, until int) {
	t.Helper()
	for ref.Time() < until {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// stoppedResult is the Result of an engine interrupted where it stands.
func stoppedResult(t *testing.T, ref *shard.Engine) *sim.Result {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := ref.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("reference: err %v, want context.Canceled", err)
	}
	return res
}

func TestEarlyStopParityMaxSteps(t *testing.T) {
	const maxSteps = 5 // the last STEP asks for no route: nothing to discard, and the budget flag must agree
	pkts := stopPackets(t)
	ref := stopRef(t, "random", pkts, maxSteps)
	refRes, err := ref.Run()
	if err != nil || !refRes.HitMaxSteps {
		t.Fatalf("reference: %+v, err %v; the fixture must outlive its budget", refRes, err)
	}
	c := stopCoord(t, "random", pkts, maxSteps, distOptions(2))
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameStop(t, c, res, ref, refRes)
}

func TestEarlyStopParityLivelock(t *testing.T) {
	pkts := stopPackets(t)
	ref := stopRef(t, "bouncer", pkts, 200)
	var want []uint64
	for ref.Live() > 0 && !ref.Livelocked() {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		want = append(want, ref.StateHash())
	}
	refRes, err := ref.Run()
	if err != nil || !refRes.Livelocked {
		t.Fatalf("reference: %+v, err %v; the fixture must livelock", refRes, err)
	}
	c := stopCoord(t, "bouncer", pkts, 200, distOptions(2))
	var got []uint64
	c.HashHook = func(_ int, h uint64) { got = append(got, h) }
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameStop(t, c, res, ref, refRes)
	if !slices.Equal(got, want) {
		t.Errorf("per-step hashes diverged:\n  distributed %x\n  reference   %x", got, want)
	}
}

func TestEarlyStopParityCancel(t *testing.T) {
	pkts := stopPackets(t)
	opts := distOptions(2)
	opts.CheckpointDir = t.TempDir()
	opts.CheckpointEvery = 100 // only the early stop writes
	c := stopCoord(t, "random", pkts, 300, opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c.StepHook = func(step, _ int) {
		if step == 4 {
			cancel()
		}
	}
	res, err := c.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	// The stop flag is raised by a watcher goroutine, so the run may take a
	// step or two more; the reference is walked to wherever it stopped.
	ref := stopRef(t, "random", pkts, 300)
	stepTo(t, ref, c.Time())
	sameStop(t, c, res, ref, stoppedResult(t, ref))
	sameCheckpoint(t, opts.CheckpointDir, ref)
}

// TestEarlyStopParityRollback captures a checkpoint mid-run (the workers
// hold a routed step across the CKPT), kills a worker two steps later so
// the whole fleet is reloaded from that capture (the LOAD discards another
// routed step and its partials), runs on, and stops early.
func TestEarlyStopParityRollback(t *testing.T) {
	pkts := stopPackets(t)
	opts := distOptions(2)
	opts.CheckpointDir = t.TempDir()
	opts.CheckpointEvery = 3
	sp := newKillableSpawner(dshard.WorkerOptions{Token: opts.Token, Policies: testPolicies})
	opts.Spawn = sp.spawn
	c := stopCoord(t, "random", pkts, 300, opts)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killed := false
	var replayed []int
	c.StepHook = func(step, _ int) {
		switch {
		case step == 5 && !killed:
			killed = true
			sp.kill(1) // returns once the worker is gone: the next barrier finds it dead
		case killed:
			replayed = append(replayed, step)
		}
		if killed && step == 7 {
			cancel()
		}
	}
	res, err := c.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if c.Recoveries() != 1 || len(replayed) < 4 || replayed[0] != 4 {
		t.Fatalf("recoveries %d, steps after the kill %v: want one rollback to the step-3 capture", c.Recoveries(), replayed)
	}
	ref := stopRef(t, "random", pkts, 300)
	stepTo(t, ref, c.Time())
	sameStop(t, c, res, ref, stoppedResult(t, ref))
	sameCheckpoint(t, opts.CheckpointDir, ref)
}

// TestRunCancelledWhileWaiting: a coordinator whose workers never dial in
// must not hold a cancelled caller for the rejoin timeout.
func TestRunCancelledWhileWaiting(t *testing.T) {
	opts := distOptions(2) // no Spawn: workers are external, and none exists
	opts.CheckpointDir = t.TempDir()
	c, err := dshard.New(dshard.Spec{
		Side: stopSide, Wrap: true, Policy: "random", Grid: stopGrid, Seed: stopSeed, MaxSteps: 300, DetectLivelock: true,
	}, stopPackets(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	addr := c.Addr()
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	res, err := c.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("Run held a cancelled caller for %s", d)
	}
	if res == nil || res.TotalHops != 0 || c.Time() != 0 {
		t.Errorf("result %+v at step %d, want the untouched initial state", res, c.Time())
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		conn.Close()
		t.Error("listener still accepting after Run returned")
	}
	// The job itself survives: the initial state is on disk, resumable.
	ref := stopRef(t, "random", stopPackets(t), 300)
	sameCheckpoint(t, opts.CheckpointDir, ref)
}

// TestRunCancelledWhileWaitingResume: the same, resuming a checkpoint another
// grid wrote — what is left behind is the checkpoint at this run's grid, the
// bytes a loaded fleet would have captured.
func TestRunCancelledWhileWaitingResume(t *testing.T) {
	pkts := stopPackets(t)
	writer := stopRef(t, "random", pkts, 300)
	stepTo(t, writer, 3)
	ck, err := writer.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	grid := shard.Grid{P: 1, Q: 2}
	opts := distOptions(2)
	opts.CheckpointDir = t.TempDir()
	opts.Resume = ck
	c, err := dshard.New(dshard.Spec{
		Side: stopSide, Wrap: true, Policy: "random", Grid: grid, Seed: stopSeed, MaxSteps: 300, DetectLivelock: true,
	}, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	pol, _ := testPolicies("random")
	ref, err := shard.New(mesh.MustNewTorus(2, stopSide), pol, nil, shard.Options{Grid: grid, MaxSteps: 300, Seed: stopSeed, DetectLivelock: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.Restore(ck); err != nil {
		t.Fatal(err)
	}
	sameStop(t, c, res, ref, stoppedResult(t, ref))
	sameCheckpoint(t, opts.CheckpointDir, ref)
}

// TestStepAllocationBudget is the dshard rung's regression fence: a
// loopback 2x1 run on a 32x32 full-load torus, livelock hashing on, may
// allocate only so much per step in steady state — from the 2nd to the last
// completed step, both workers included, so bring-up and the LOAD are not
// spread over the steps. Workers decode halo moves into recycled packets, so
// about 6 mallocs and 5.8 KB per step remain; with a packet allocated per
// halo move, as before recycling, the same window reads 32 mallocs.
func TestStepAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const maxMallocs, maxBytes = 16, 8 << 10
	m := mesh.MustNewTorus(2, 32)
	pkts, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	opts := distOptions(2)
	opts.CheckpointEvery = 0 // default cadence: no capture inside this run
	opts.Spawn = dshard.InProcessSpawner(dshard.WorkerOptions{Token: opts.Token, Policies: testPolicies})
	c, err := dshard.New(dshard.Spec{
		Side: 32, Wrap: true, Policy: "fixed", Grid: shard.Grid{P: 2, Q: 1}, Seed: 1, DetectLivelock: true,
	}, pkts, opts)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	var first, last int
	c.StepHook = func(step, _ int) {
		switch {
		case step < 2:
		case first == 0:
			first = step
			runtime.ReadMemStats(&before)
		default:
			last = step
			runtime.ReadMemStats(&after)
		}
	}
	res, err := c.Run(context.Background())
	if err != nil || res.Delivered != res.Total || c.Recoveries() != 0 {
		t.Fatalf("run: %+v, err %v, %d recoveries", res, err, c.Recoveries())
	}
	if last-first < 10 {
		t.Fatalf("steady state spans steps %d..%d, want at least 10 steps", first, last)
	}
	steps := uint64(last - first)
	mallocs, bytes := (after.Mallocs-before.Mallocs)/steps, (after.TotalAlloc-before.TotalAlloc)/steps
	t.Logf("steps %d..%d: %d mallocs/step, %d bytes/step", first, last, mallocs, bytes)
	if mallocs > maxMallocs || bytes > maxBytes {
		t.Errorf("per step: %d mallocs (limit %d), %d bytes (limit %d)", mallocs, maxMallocs, bytes, maxBytes)
	}
}
