package dshard_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hotpotato/internal/dshard"
	"hotpotato/internal/mesh"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// The bring-up of a run is everything from dshard.New to its first
// completed step: admission, the t=0 recovery floor, the listener, two
// in-process workers dialing in, ASSIGN (each worker builds its mesh tables
// and shard.Node) and LOAD (each decodes its shards' packets), then the
// route-only barrier and the first fused step.

const bringUpSide = 64

func bringUpPackets(tb testing.TB) []*sim.Packet {
	tb.Helper()
	pkts, err := workload.FullLoad(mesh.MustNewTorus(2, bringUpSide), 2, rand.New(rand.NewSource(1)))
	if err != nil {
		tb.Fatal(err)
	}
	return pkts
}

// bringUp runs the 64² full-load torus on a 2×1 grid with two in-process
// workers until its first StepHook and returns the time and the bytes
// allocated (both workers included) from just before New to that hook.
// The run is then cancelled; what it does after the hook is not counted.
func bringUp(tb testing.TB, pkts []*sim.Packet) (time.Duration, uint64) {
	tb.Helper()
	opts := distOptions(2)
	opts.CheckpointEvery = 0 // default cadence: the floor is the t=0 population
	opts.Spawn = dshard.InProcessSpawner(dshard.WorkerOptions{Token: opts.Token, Policies: testPolicies})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var before, at runtime.MemStats
	var elapsed time.Duration
	hookT, hookLive := -1, -1
	runtime.ReadMemStats(&before)
	start := time.Now()
	c, err := dshard.New(dshard.Spec{
		Side: bringUpSide, Wrap: true, Policy: "fixed", Grid: shard.Grid{P: 2, Q: 1}, Seed: 1,
	}, pkts, opts)
	if err != nil {
		tb.Fatal(err)
	}
	c.StepHook = func(t, live int) {
		if hookT < 0 {
			elapsed = time.Since(start)
			runtime.ReadMemStats(&at)
			hookT, hookLive = t, live
			cancel()
		}
	}
	if _, err := c.Run(ctx); !errors.Is(err, context.Canceled) {
		tb.Fatalf("run after the first step: err = %v, want context.Canceled", err)
	}
	if hookT != 1 || hookLive <= 0 || hookLive > len(pkts) || c.Recoveries() != 0 {
		tb.Fatalf("first step hook at t=%d with %d of %d live, %d recoveries", hookT, hookLive, len(pkts), c.Recoveries())
	}
	return elapsed, at.TotalAlloc - before.TotalAlloc
}

// TestBringUpAllocationBudget fences the bring-up's allocation: the
// coordinator encodes each packet once into its shard's LOAD body (which is
// also the t=0 recovery floor) and each worker decodes that body straight
// into its packet slab, so no []sim.PacketState copy of the population is
// built on either side. About 2.7 MB remain: the workers' packet slabs (1
// MB) and staging lists, three mesh tables, the connections' read buffers,
// the LOAD frames and the bodies themselves. With the population copied
// into a t=0 checkpoint and decoded into a state slice on every worker, as
// before, the same window read 4.5 MB.
func TestBringUpAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const maxBytes = 3 << 20
	pkts := bringUpPackets(t)
	_, bytes := bringUp(t, pkts)
	t.Logf("New to first step: %d bytes", bytes)
	if bytes > maxBytes {
		t.Errorf("bring-up allocated %d bytes, limit %d", bytes, maxBytes)
	}
}

// BenchmarkBringUp times New to the first StepHook on the 64² full-load
// torus, 2×1 grid, two in-process workers.
func BenchmarkBringUp(b *testing.B) {
	pkts := bringUpPackets(b)
	var total time.Duration
	var bytes uint64
	for i := 0; i < b.N; i++ {
		d, n := bringUp(b, pkts)
		total += d
		bytes += n
	}
	b.ReportMetric(float64(total.Microseconds())/1e3/float64(b.N), "ms/run")
	b.ReportMetric(float64(bytes)/float64(b.N), "B/run")
}
