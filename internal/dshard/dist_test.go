package dshard_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hotpotato/internal/dshard"
	"hotpotato/internal/mesh"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
	"hotpotato/internal/workload"
)

// bouncerPolicy deliberately livelocks: a packet always exits back through
// the arc it entered. It pins the bit-identical-livelock requirement for
// distributed runs (same repeated hash, same detection step).
type bouncerPolicy struct{}

func (bouncerPolicy) Name() string        { return "bouncer" }
func (bouncerPolicy) Deterministic() bool { return true }
func (bouncerPolicy) Clone() sim.Policy   { return bouncerPolicy{} }
func (bouncerPolicy) Route(ns *sim.NodeState, out []mesh.Dir, _ *rand.Rand) {
	for i, p := range ns.Packets {
		if p.EnteredVia != mesh.NoDir {
			out[i] = p.EnteredVia.Opposite()
		} else {
			out[i] = ns.Info(i).Good()[0]
		}
	}
}

// testPolicies is the registry the test coordinator and workers share: the
// real one plus the adversarial bouncer.
func testPolicies(name string) (sim.Policy, error) {
	if name == "bouncer" {
		return bouncerPolicy{}, nil
	}
	return spec.NewPolicy(name)
}

func clonePackets(pkts []*sim.Packet) []*sim.Packet {
	out := make([]*sim.Packet, len(pkts))
	for i, p := range pkts {
		ps := sim.CapturePacket(p)
		out[i] = ps.Packet()
	}
	return out
}

// trace is the reference single-engine run: per-step hashes and live
// counts, the final result and the final state hash.
type trace struct {
	hashes map[int]uint64
	lives  map[int]int
	result *sim.Result
	final  uint64
}

// runRef executes the reference: a plain sim.Engine (randomized policies
// draw the same per-node streams the shards do), recording its whole
// trajectory.
func runRef(t *testing.T, side int, wrap bool, policy string, pkts []*sim.Packet, seed int64, maxSteps int) *trace {
	t.Helper()
	var m *mesh.Mesh
	if wrap {
		m = mesh.MustNewTorus(2, side)
	} else {
		m = mesh.MustNew(2, side)
	}
	pol, err := testPolicies(policy)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.New(m, pol, clonePackets(pkts), sim.Options{
		Seed: seed, MaxSteps: maxSteps, DetectLivelock: true,
	})
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	defer ref.Close()
	tr := &trace{hashes: map[int]uint64{}, lives: map[int]int{}}
	for ref.Live() > 0 && !ref.Livelocked() && ref.Time() < maxSteps {
		if err := ref.Step(); err != nil {
			t.Fatalf("sim step %d: %v", ref.Time(), err)
		}
		tr.hashes[ref.Time()] = ref.StateHash()
		tr.lives[ref.Time()] = ref.Live()
	}
	tr.final = ref.StateHash()
	tr.result, err = ref.Run()
	if err != nil {
		t.Fatalf("sim result: %v", err)
	}
	return tr
}

// distOptions returns fast-timeout options for tests; tests override what
// they need.
func distOptions(workers int) dshard.Options {
	return dshard.Options{
		Workers:          workers,
		Token:            "test-token",
		Policies:         testPolicies,
		StepTimeout:      3 * time.Second,
		MaxRetries:       3,
		BackoffBase:      5 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		HeartbeatEvery:   25 * time.Millisecond,
		HeartbeatTimeout: time.Second,
		RejoinTimeout:    10 * time.Second,
		CheckpointEvery:  5,
	}
}

// checkAgainst wires a coordinator's hooks to compare every step against
// the reference trace. Returns a func to call after Run for the final
// comparison.
func checkAgainst(t *testing.T, c *dshard.Coordinator, tr *trace) func(res *sim.Result) {
	t.Helper()
	var mismatches atomic.Int32
	c.StepHook = func(step, live int) {
		if want, ok := tr.lives[step]; ok && live != want && mismatches.Add(1) <= 5 {
			t.Errorf("step %d: live %d, reference %d", step, live, want)
		}
	}
	c.HashHook = func(step int, h uint64) {
		want, ok := tr.hashes[step]
		if !ok {
			if mismatches.Add(1) <= 5 {
				t.Errorf("step %d: distributed hash %#x, reference never reached this step", step, h)
			}
			return
		}
		if h != want && mismatches.Add(1) <= 5 {
			t.Errorf("step %d: state hash diverged: distributed %#x, reference %#x", step, h, want)
		}
	}
	return func(res *sim.Result) {
		t.Helper()
		rr := tr.result
		if res.Steps != rr.Steps || res.Delivered != rr.Delivered || res.Total != rr.Total ||
			res.Livelocked != rr.Livelocked || res.HitMaxSteps != rr.HitMaxSteps ||
			res.TotalDeflections != rr.TotalDeflections || res.TotalHops != rr.TotalHops ||
			res.MaxNodeLoad != rr.MaxNodeLoad || res.Reroutes != rr.Reroutes {
			t.Errorf("results diverged:\n  distributed %+v\n  reference   %+v", res, rr)
		}
		if got := c.StateHash(); got != tr.final {
			t.Errorf("final state hash: distributed %#x, reference %#x", got, tr.final)
		}
	}
}

// TestDistributedParity is the tentpole contract: a coordinator driving
// real worker endpoints over TCP produces a bit-identical trajectory to the
// single engine — per-step state hash, live counts, and the full summary.
func TestDistributedParity(t *testing.T) {
	cases := []struct {
		name    string
		side    int
		wrap    bool
		policy  string
		seed    int64
		grid    shard.Grid
		workers int
	}{
		{"torus6/random/2x2/w2", 6, true, "random", 7, shard.Grid{P: 2, Q: 2}, 2},
		{"torus6/random/2x2/w4", 6, true, "random", 7, shard.Grid{P: 2, Q: 2}, 4},
		{"mesh6/fixed/3x2/w3", 6, false, "fixed", 1, shard.Grid{P: 3, Q: 2}, 3},
		{"torus6/restricted/1x6/w2", 6, true, "restricted", 42, shard.Grid{P: 1, Q: 6}, 2},
		{"mesh8/random/4x2/w3", 8, false, "random", 11, shard.Grid{P: 4, Q: 2}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m *mesh.Mesh
			if tc.wrap {
				m = mesh.MustNewTorus(2, tc.side)
			} else {
				m = mesh.MustNew(2, tc.side)
			}
			pkts := workload.Permutation(m, rand.New(rand.NewSource(tc.seed)))
			tr := runRef(t, tc.side, tc.wrap, tc.policy, pkts, tc.seed, 300)

			opts := distOptions(tc.workers)
			opts.Spawn = dshard.InProcessSpawner(dshard.WorkerOptions{Token: opts.Token, Policies: testPolicies})
			c, err := dshard.New(dshard.Spec{
				Side: tc.side, Wrap: tc.wrap, Policy: tc.policy, Grid: tc.grid,
				Seed: tc.seed, MaxSteps: 300, DetectLivelock: true,
			}, clonePackets(pkts), opts)
			if err != nil {
				t.Fatalf("dshard.New: %v", err)
			}
			final := checkAgainst(t, c, tr)
			res, err := c.Run(context.Background())
			if err != nil {
				t.Fatalf("distributed run: %v", err)
			}
			final(res)
		})
	}
}

// TestDistributedLivelockParity pins the livelock contract across the
// process boundary: the distributed run must detect the same repeated hash
// at the same step as the reference.
func TestDistributedLivelockParity(t *testing.T) {
	m := mesh.MustNewTorus(2, 4)
	pkts := []*sim.Packet{
		sim.NewPacket(0, m.ID([]int{0, 0}), m.ID([]int{2, 0})),
		sim.NewPacket(1, m.ID([]int{1, 1}), m.ID([]int{3, 1})),
		sim.NewPacket(2, m.ID([]int{3, 2}), m.ID([]int{1, 2})),
	}
	tr := runRef(t, 4, true, "bouncer", pkts, 5, 200)
	if !tr.result.Livelocked {
		t.Fatal("the fixture must livelock")
	}
	opts := distOptions(2)
	opts.Spawn = dshard.InProcessSpawner(dshard.WorkerOptions{Token: opts.Token, Policies: testPolicies})
	c, err := dshard.New(dshard.Spec{
		Side: 4, Wrap: true, Policy: "bouncer", Grid: shard.Grid{P: 2, Q: 2},
		Seed: 5, MaxSteps: 200, DetectLivelock: true,
	}, clonePackets(pkts), opts)
	if err != nil {
		t.Fatal(err)
	}
	final := checkAgainst(t, c, tr)
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	if !res.Livelocked {
		t.Error("distributed run did not detect the livelock")
	}
	final(res)
}

// killableSpawner wraps InProcessSpawner and remembers each slot's current
// proc so the test can kill workers mid-run.
type killableSpawner struct {
	inner func(slot int, addr string) (dshard.WorkerProc, error)
	mu    sync.Mutex
	procs map[int]dshard.WorkerProc
}

func newKillableSpawner(base dshard.WorkerOptions) *killableSpawner {
	return &killableSpawner{inner: dshard.InProcessSpawner(base), procs: map[int]dshard.WorkerProc{}}
}

func (k *killableSpawner) spawn(slot int, addr string) (dshard.WorkerProc, error) {
	p, err := k.inner(slot, addr)
	if err != nil {
		return nil, err
	}
	k.mu.Lock()
	k.procs[slot] = p
	k.mu.Unlock()
	return p, nil
}

func (k *killableSpawner) kill(slot int) {
	k.mu.Lock()
	p := k.procs[slot]
	k.mu.Unlock()
	if p != nil {
		p.Stop()
	}
}

// TestDistributedKillRejoin is the headline robustness test: five separate
// worker kills across the run, each after fresh forward progress, and the
// recovered run's trajectory must remain bit-identical to the reference —
// per-step hashes, live counts, final summary, final state hash. Zero lost
// state, five rejoins.
func TestDistributedKillRejoin(t *testing.T) {
	// The run must outlast the last kill: a kill after the final step forces
	// no rejoin. Each kill rolls back to a checkpoint (every 4 steps) and the
	// next lands three steps later, so the fifth lands by step 4·4+5 = 21
	// even when every kill is two steps late; at side 20 the run takes 22.
	const side, seed, maxSteps, kills = 20, 9, 400, 5
	m := mesh.MustNewTorus(2, side)
	pkts, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	tr := runRef(t, side, true, "random", pkts, seed, maxSteps)

	// Slow each step down so the kills land mid-run: loopback steps take
	// microseconds, and a kill after Run has finished tests nothing.
	sp := newKillableSpawner(dshard.WorkerOptions{
		Token: "test-token", Policies: testPolicies,
		TestHookPreRoute: func(int) { time.Sleep(5 * time.Millisecond) },
	})
	opts := distOptions(4)
	opts.Spawn = sp.spawn
	opts.CheckpointEvery = 4
	opts.MaxRecoveries = 40
	c, err := dshard.New(dshard.Spec{
		Side: side, Wrap: true, Policy: "random", Grid: shard.Grid{P: 2, Q: 2},
		Seed: seed, MaxSteps: maxSteps, DetectLivelock: true,
	}, clonePackets(pkts), opts)
	if err != nil {
		t.Fatal(err)
	}
	final := checkAgainst(t, c, tr)

	// The killer waits for three completed steps of forward progress, then
	// kills a worker — so every kill lands on a healthy, advancing fleet
	// and each must force its own recovery.
	var stepEvents atomic.Int64
	inner := c.StepHook
	c.StepHook = func(step, live int) {
		stepEvents.Add(1)
		inner(step, live)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := int64(0)
		for i := 0; i < kills; i++ {
			deadline := time.Now().Add(30 * time.Second)
			for stepEvents.Load() < last+3 {
				if time.Now().After(deadline) {
					t.Errorf("kill %d: no forward progress", i)
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
			sp.kill(i % opts.Workers)
			last = stepEvents.Load()
		}
	}()

	res, err := c.Run(context.Background())
	<-done
	if err != nil {
		t.Fatalf("distributed run with kills: %v", err)
	}
	final(res)
	if got := c.Recoveries(); got < kills {
		t.Errorf("recoveries: %d, want >= %d (every kill must force a rejoin)", got, kills)
	}
	t.Logf("survived %d kills with %d recoveries in %d steps", kills, c.Recoveries(), res.Steps)
}

// TestDistributedTransportFaults runs with a lossy transport on every
// worker — drops, duplicates, delays — and requires the retry/idempotency
// machinery to absorb all of it: same trajectory, same summary.
func TestDistributedTransportFaults(t *testing.T) {
	const side, seed, maxSteps = 6, 3, 300
	m := mesh.MustNewTorus(2, side)
	pkts := workload.Permutation(m, rand.New(rand.NewSource(seed)))
	tr := runRef(t, side, true, "random", pkts, seed, maxSteps)

	// One STEPPED per worker per step: the periods are short enough for every
	// class to fire several times in a run of a dozen steps, and the attempt
	// deadline short enough that waiting out a dropped reply stays cheap.
	opts := distOptions(2)
	opts.StepTimeout = 300 * time.Millisecond
	opts.Spawn = dshard.InProcessSpawner(dshard.WorkerOptions{
		Token: opts.Token, Policies: testPolicies,
		Faults: &dshard.FaultPlan{Seed: 21, DropEvery: 7, DupEvery: 3, DelayEvery: 4, Delay: 10 * time.Millisecond},
	})
	c, err := dshard.New(dshard.Spec{
		Side: side, Wrap: true, Policy: "random", Grid: shard.Grid{P: 2, Q: 2},
		Seed: seed, MaxSteps: maxSteps, DetectLivelock: true,
	}, clonePackets(pkts), opts)
	if err != nil {
		t.Fatal(err)
	}
	final := checkAgainst(t, c, tr)
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("run under transport faults: %v", err)
	}
	final(res)
	t.Logf("lossy transport absorbed with %d recoveries", c.Recoveries())
}

// TestDistributedCorruptFrameRecovery injects frame corruption into one
// worker's stream: the CRC must catch it (never a silent misparse), the
// coordinator must declare the worker failed and recover, and the healed
// run must stay bit-identical.
func TestDistributedCorruptFrameRecovery(t *testing.T) {
	const side, seed, maxSteps = 6, 17, 300
	m := mesh.MustNewTorus(2, side)
	pkts := workload.Permutation(m, rand.New(rand.NewSource(seed)))
	tr := runRef(t, side, true, "fixed", pkts, seed, maxSteps)

	// Only slot 0's first incarnation is faulty; its respawn is clean, so
	// the run heals rather than looping corrupt forever.
	clean := dshard.WorkerOptions{Token: "test-token", Policies: testPolicies}
	faulty := clean
	// Frame 6 of slot 0's stream (the STEPPED of step 3) gets mangled — early
	// enough that even a short run is guaranteed to reach it.
	faulty.Faults = &dshard.FaultPlan{Seed: 2, CorruptEvery: 6, MaxFaults: 1}
	cleanSpawn := dshard.InProcessSpawner(clean)
	faultySpawn := dshard.InProcessSpawner(faulty)
	var first atomic.Bool
	first.Store(true)
	opts := distOptions(2)
	opts.Spawn = func(slot int, addr string) (dshard.WorkerProc, error) {
		if slot == 0 && first.CompareAndSwap(true, false) {
			return faultySpawn(slot, addr)
		}
		return cleanSpawn(slot, addr)
	}
	c, err := dshard.New(dshard.Spec{
		Side: side, Wrap: true, Policy: "fixed", Grid: shard.Grid{P: 2, Q: 1},
		Seed: seed, MaxSteps: maxSteps, DetectLivelock: true,
	}, clonePackets(pkts), opts)
	if err != nil {
		t.Fatal(err)
	}
	final := checkAgainst(t, c, tr)
	res, err := c.Run(context.Background())
	if err != nil {
		t.Fatalf("run with corrupt frames: %v", err)
	}
	final(res)
	if c.Recoveries() < 1 {
		t.Error("corruption never triggered a recovery — the fault did not fire")
	}
}

// TestDistributedResumeAcrossGrids stops a distributed 2x2 run mid-flight
// (context cancel), then resumes the saved checkpoint on a different grid
// (4x1) with a different worker count — and the stitched-together run must
// land on exactly the reference's final summary and state hash.
func TestDistributedResumeAcrossGrids(t *testing.T) {
	const side, seed, maxSteps = 6, 29, 300
	m := mesh.MustNewTorus(2, side)
	pkts, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	tr := runRef(t, side, true, "random", pkts, seed, maxSteps)
	dir := t.TempDir()

	// Phase 1: run on 2x2, cancel after step 10. The pre-route sleep keeps
	// the run alive long enough for the cancellation to land mid-flight.
	opts := distOptions(2)
	opts.Spawn = dshard.InProcessSpawner(dshard.WorkerOptions{
		Token: opts.Token, Policies: testPolicies,
		TestHookPreRoute: func(int) { time.Sleep(5 * time.Millisecond) },
	})
	opts.CheckpointDir = dir
	opts.CheckpointEvery = 2
	sp := dshard.Spec{
		Side: side, Wrap: true, Policy: "random", Grid: shard.Grid{P: 2, Q: 2},
		Seed: seed, MaxSteps: maxSteps, DetectLivelock: true,
	}
	c1, err := dshard.New(sp, clonePackets(pkts), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c1.StepHook = func(step, live int) {
		if step >= 4 {
			cancel()
		}
	}
	if _, err := c1.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("phase 1: err %v, want context.Canceled", err)
	}
	if c1.Time() < 4 {
		t.Fatalf("phase 1 stopped at step %d, want >= 4", c1.Time())
	}

	// Phase 2: load the saved checkpoint and finish on 4x1 with 4 workers.
	ck, err := shard.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	sp2 := sp
	sp2.Grid = shard.Grid{P: 4, Q: 1}
	opts2 := distOptions(4)
	opts2.Spawn = dshard.InProcessSpawner(dshard.WorkerOptions{Token: opts2.Token, Policies: testPolicies})
	opts2.Resume = ck
	c2, err := dshard.New(sp2, nil, opts2)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	final := checkAgainst(t, c2, tr)
	res, err := c2.Run(context.Background())
	if err != nil {
		t.Fatalf("phase 2: %v", err)
	}
	final(res)
	t.Logf("resumed %s checkpoint of step %d on %s, finished at step %d",
		sp.Grid, ck.Manifest.Time, sp2.Grid, c2.Time())
}

// TestDistributedDegenerateGridRestore resumes a mid-flight 2x2 checkpoint
// on the degenerate grids — 1xk (a single row of column strips) and kx1 (a
// single column of row strips) — while every worker runs a lossy transport
// for the whole resumed leg. Degenerate grids are where the halo exchange
// is most asymmetric (each shard borders at most two neighbours, and the
// strip edges carry the entire cross-shard traffic), so a restore bug that
// mis-partitions boundary packets shows up here first. The fault overlay
// stays active throughout: retries and duplicate-skipping must absorb it
// without perturbing the trajectory.
func TestDistributedDegenerateGridRestore(t *testing.T) {
	const side, seed, maxSteps = 6, 41, 300
	m := mesh.MustNewTorus(2, side)
	pkts, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	tr := runRef(t, side, true, "random", pkts, seed, maxSteps)
	dir := t.TempDir()

	// Phase 1: an intact 2x2 run cancelled mid-flight leaves a coordinated
	// checkpoint behind.
	opts := distOptions(2)
	opts.Spawn = dshard.InProcessSpawner(dshard.WorkerOptions{
		Token: opts.Token, Policies: testPolicies,
		TestHookPreRoute: func(int) { time.Sleep(5 * time.Millisecond) },
	})
	opts.CheckpointDir = dir
	opts.CheckpointEvery = 2
	sp := dshard.Spec{
		Side: side, Wrap: true, Policy: "random", Grid: shard.Grid{P: 2, Q: 2},
		Seed: seed, MaxSteps: maxSteps, DetectLivelock: true,
	}
	c1, err := dshard.New(sp, clonePackets(pkts), opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c1.StepHook = func(step, live int) {
		if step >= 4 {
			cancel()
		}
	}
	if _, err := c1.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("phase 1: err %v, want context.Canceled", err)
	}

	for _, tc := range []struct {
		name string
		grid shard.Grid
	}{
		{"1xk", shard.Grid{P: 1, Q: 4}},
		{"kx1", shard.Grid{P: 4, Q: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck, err := shard.LoadDir(dir)
			if err != nil {
				t.Fatalf("LoadDir: %v", err)
			}
			sp2 := sp
			sp2.Grid = tc.grid
			opts2 := distOptions(2)
			opts2.StepTimeout = 300 * time.Millisecond
			opts2.Spawn = dshard.InProcessSpawner(dshard.WorkerOptions{
				Token: opts2.Token, Policies: testPolicies,
				Faults: &dshard.FaultPlan{Seed: 5, DropEvery: 4, DupEvery: 5, DelayEvery: 3, Delay: 5 * time.Millisecond},
			})
			opts2.Resume = ck
			c2, err := dshard.New(sp2, nil, opts2)
			if err != nil {
				t.Fatalf("resume on %s: %v", tc.grid, err)
			}
			final := checkAgainst(t, c2, tr)
			res, err := c2.Run(context.Background())
			if err != nil {
				t.Fatalf("resumed run on %s under faults: %v", tc.grid, err)
			}
			final(res)
			t.Logf("resumed step-%d checkpoint on %s under lossy transport; finished at step %d",
				ck.Manifest.Time, tc.grid, c2.Time())
		})
	}
}

// TestDistributedRejects covers coordinator constructor validation.
func TestDistributedRejects(t *testing.T) {
	good := dshard.Spec{Side: 6, Policy: "random", Grid: shard.Grid{P: 2, Q: 2}}
	if _, err := dshard.New(good, nil, dshard.Options{Workers: 1}); err == nil {
		t.Error("missing Policies: want error")
	}
	if _, err := dshard.New(good, nil, distOptions(5)); err == nil {
		t.Error("more workers than shards: want error")
	}
	if _, err := dshard.New(good, nil, distOptions(0)); err == nil {
		t.Error("zero workers: want error")
	}
	bad := good
	bad.Policy = "no-such-policy"
	if _, err := dshard.New(bad, nil, distOptions(2)); err == nil {
		t.Error("unknown policy: want error")
	}
	m := mesh.MustNew(2, 6)
	dup := []*sim.Packet{sim.NewPacket(0, 0, 5), sim.NewPacket(0, 1, 6)}
	_ = m
	if _, err := dshard.New(good, dup, distOptions(2)); !errors.Is(err, sim.ErrBadInjection) {
		t.Errorf("duplicate ids: err %v, want ErrBadInjection", err)
	}
}

// TestResumeRefusesDuplicateIDs: a checkpoint that holds one packet ID twice
// — in two parts, or live and among the finalized packets — is refused on
// resume with shard.ErrBadCheckpoint, as shard.Engine.Restore refuses it.
// The copies sit in shards that different workers own, so no worker can see
// both: the coordinator has to check.
func TestResumeRefusesDuplicateIDs(t *testing.T) {
	writer := stopRef(t, "random", stopPackets(t), 300)
	for writer.Progress().Delivered == 0 {
		stepTo(t, writer, writer.Time()+1)
	}
	cases := []struct {
		name   string
		tamper func(ck *shard.Checkpoint) int
	}{
		{"untouched", func(*shard.Checkpoint) int { return -1 }},
		{"two parts", func(ck *shard.Checkpoint) int {
			id := ck.Parts[0].Packets[0].ID
			ck.Parts[len(ck.Parts)-1].Packets[0].ID = id
			return id
		}},
		{"live and finalized", func(ck *shard.Checkpoint) int {
			id := ck.Manifest.Finalized[0].ID
			ck.Parts[len(ck.Parts)-1].Packets[0].ID = id
			return id
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck, err := writer.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			id := tc.tamper(ck)
			opts := distOptions(2)
			opts.Resume = ck
			c, err := dshard.New(dshard.Spec{
				Side: stopSide, Wrap: true, Policy: "random", Grid: shard.Grid{P: 2, Q: 1}, Seed: stopSeed, MaxSteps: 300, DetectLivelock: true,
			}, nil, opts)
			if id < 0 {
				if err != nil {
					t.Fatalf("untouched checkpoint refused: %v", err)
				}
				c.Close()
				return
			}
			if err == nil {
				c.Close()
				t.Fatalf("checkpoint with packet id %d twice accepted", id)
			}
			if want := fmt.Sprintf("packet id %d occurs more than once", id); !errors.Is(err, shard.ErrBadCheckpoint) || !strings.Contains(err.Error(), want) {
				t.Fatalf("err %v, want ErrBadCheckpoint: %s", err, want)
			}
		})
	}
}
