package shard

import (
	"math/rand"
	"testing"

	"hotpotato/internal/mesh"
	"hotpotato/internal/routing"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// TestStepSteadyStateAllocs: once a run is under way a sharded step
// allocates nothing — on a 2×1 Engine (a step plus its state hash), and on
// one Node hosting both shards of 2×1, stepped by hand with Route's buckets
// handed straight back to ApplyArrived: a dshard worker's step minus the
// wire. The instance is a 64×64 torus at full load, which runs about 75
// steps; from step 8 on, every other step is counted on its own (an
// average over several would round a stray allocation down to zero).
func TestStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const side, seed, warm, counted = 64, 1, 8, 20
	steady := func(t *testing.T, step func(), live func() int) {
		for i := 0; i < warm; i++ {
			step()
		}
		for i := 0; i < counted; i++ {
			if allocs := testing.AllocsPerRun(1, step); allocs != 0 {
				t.Fatalf("step %d of the steady state allocates %v times", warm+2*i+1, allocs)
			}
		}
		if live() == 0 {
			t.Fatal("the run ended inside the counted steps")
		}
	}
	t.Run("engine", func(t *testing.T) {
		m := mesh.MustNewTorus(2, side)
		pkts, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(m, routing.NewFixedPriority(), pkts, Options{Grid: Grid{P: 2, Q: 1}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		steady(t, func() {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
			e.StateHash()
		}, e.Live)
	})
	t.Run("node", func(t *testing.T) {
		m, ref := fullLoadRef(t, side, routing.NewFixedPriority(), seed)
		n, err := NewNode(m, routing.NewFixedPriority(), Grid{P: 2, Q: 1}, []int{0, 1}, seed, sim.ValidateOff)
		if err != nil {
			t.Fatal(err)
		}
		loadFrom(t, n, ref)
		step := 0
		steady(t, func() {
			out, err := n.Route(step)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := n.ApplyArrived(step, out); err != nil {
				t.Fatal(err)
			}
			step++
		}, n.Live)
	})
}
