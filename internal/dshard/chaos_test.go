package dshard_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"hotpotato/internal/dshard"
	"hotpotato/internal/mesh"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
)

const chaosToken = "chaos-token"

// TestMain makes the test binary its own worker process: started as
// "<test binary> worker -addr A -slot N" (by dshard.ExecSpawner), it serves
// one slot and exits instead of running the tests.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "worker" {
		os.Exit(chaosWorker(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// chaosWorker is the body of a spawned test worker. Each step is slowed so
// the run lasts long enough for kills to land mid-run on a loopback link
// that would otherwise finish in milliseconds.
func chaosWorker(args []string) int {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	addr := fs.String("addr", "", "coordinator address")
	slot := fs.Int("slot", -1, "worker slot")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	err := dshard.RunWorker(context.Background(), *addr, dshard.WorkerOptions{
		Token:            chaosToken,
		Slot:             *slot,
		Policies:         spec.NewPolicy,
		TestHookPreRoute: func(int) { time.Sleep(5 * time.Millisecond) },
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos worker:", err)
		return 1
	}
	return 0
}

// TestDistChaosSIGKILL is the distributed-durability proof at the process
// level: a coordinator drives four real worker processes through
// dshard.ExecSpawner, a killer SIGKILLs one of them every few steps, and the
// finished run must be bit-identical — every Result field and the final
// state hash — to the same problem on the in-process sharded engine with no
// kills at all. DSHARD_CHAOS_KILLS overrides the kill count (default 5);
// `make chaos` runs it higher.
func TestDistChaosSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos harness; skipped in -short")
	}
	kills := 5
	if v := os.Getenv("DSHARD_CHAOS_KILLS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad DSHARD_CHAOS_KILLS %q", v)
		}
		kills = n
	}

	const (
		side     = 8
		seed     = 9
		maxSteps = 400
		workers  = 4
	)
	grid := shard.Grid{P: 2, Q: 2}
	m, err := mesh.NewTorus(2, side)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := spec.NewPolicy("random")
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := spec.ParseValidation("greedy")
	if err != nil {
		t.Fatal(err)
	}
	// The workload generator is deterministic: two draws with the same seed
	// give two independent, identical packet populations.
	newPackets := func() []*sim.Packet {
		pkts, err := spec.NewWorkload("full-load", m, 0, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return pkts
	}

	// Reference: the in-process sharded engine, never interrupted.
	se, err := shard.New(m, pol, newPackets(), shard.Options{
		Grid: grid, Seed: seed + 1, Validation: lvl,
		MaxSteps: maxSteps, DetectLivelock: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := se.Run()
	if err != nil {
		t.Fatal(err)
	}
	refHash := se.StateHash()
	se.Close()

	// The kill-scarred distributed run of the same problem.
	sp := dshard.NewExecSpawner(os.Args[0], "worker")
	c, err := dshard.New(dshard.Spec{
		Side: side, Wrap: true, Policy: "random", Grid: grid,
		Seed: seed + 1, MaxSteps: maxSteps, Validation: lvl, DetectLivelock: true,
	}, newPackets(), dshard.Options{
		Workers:          workers,
		Token:            chaosToken,
		Policies:         spec.NewPolicy,
		Spawn:            sp.Spawn,
		StepTimeout:      5 * time.Second,
		MaxRetries:       3,
		BackoffBase:      5 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		HeartbeatEvery:   25 * time.Millisecond,
		HeartbeatTimeout: time.Second,
		RejoinTimeout:    30 * time.Second,
		MaxRecoveries:    8 * kills,
		CheckpointEvery:  4,
		Logf: func(f string, args ...any) {
			fmt.Fprintf(os.Stderr, "chaos coord: "+f+"\n", args...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var stepEvents atomic.Int64
	c.StepHook = func(t, live int) { stepEvents.Add(1) }

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killErr := make(chan error, 1)
	var killsDone atomic.Int64
	go func() {
		for i := 0; i < kills; i++ {
			// Wait for forward progress since the last kill, so every kill
			// lands on a run that is genuinely mid-flight.
			base := stepEvents.Load()
			deadline := time.Now().Add(60 * time.Second)
			for stepEvents.Load() < base+3 {
				if time.Now().After(deadline) {
					killErr <- fmt.Errorf("kill %d: no forward progress within 60s", i+1)
					cancel()
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			slot := i % workers
			if !sp.Kill(slot) {
				killErr <- fmt.Errorf("kill %d: slot %d had no process", i+1, slot)
				cancel()
				return
			}
			killsDone.Add(1)
		}
		killErr <- nil
	}()

	res, runErr := c.Run(ctx)
	if err := <-killErr; err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("distributed run failed after %d kills: %v", killsDone.Load(), runErr)
	}
	if got := killsDone.Load(); got != int64(kills) {
		t.Fatalf("run finished after only %d of %d kills — not enough mid-run exposure", got, kills)
	}
	if c.Recoveries() < kills {
		t.Errorf("recoveries = %d, want >= %d (every SIGKILL must force a rollback)", c.Recoveries(), kills)
	}
	if got := len(sp.Pids()); got < workers+kills {
		t.Errorf("%d worker processes started, want >= %d (one per slot plus one per kill)", got, workers+kills)
	}

	// Bit-identity with the uninterrupted reference.
	if *res != *refRes {
		t.Errorf("result diverged after kills:\n  got  %+v\n  want %+v", *res, *refRes)
	}
	if got := c.StateHash(); got != refHash {
		t.Errorf("final state hash %016x != uninterrupted %016x", got, refHash)
	}
	t.Logf("survived %d SIGKILLs with %d recoveries; %d steps, hash %016x",
		kills, c.Recoveries(), res.Steps, c.StateHash())
}
