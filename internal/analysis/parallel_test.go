package analysis

import (
	"math/rand"
	"testing"

	"hotpotato/internal/core"
	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

func parallelSpec(m *mesh.Mesh) TrialSpec {
	return TrialSpec{
		Mesh:      m,
		NewPolicy: core.NewRestrictedPriority,
		NewWorkload: func(rng *rand.Rand) ([]*sim.Packet, error) {
			return workload.UniformRandom(m, 40, rng)
		},
		Track:      true,
		Validation: sim.ValidateRestricted,
	}
}

// runParallel fans the spec's trials out over RunSeeds.
func runParallel(spec TrialSpec, trials int, seedBase int64, workers int) ([]*TrialResult, error) {
	return RunSeeds(trials, seedBase, workers, func(seed int64) (*TrialResult, error) {
		s := spec
		s.Seed = seed
		return RunTrial(s)
	})
}

// TestParallelMatchesSerial: the parallel runner must reproduce the serial
// runner bit for bit, for any worker count.
func TestParallelMatchesSerial(t *testing.T) {
	m := mesh.MustNew(2, 8)
	serial, err := RunTrials(parallelSpec(m), 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7, 0} {
		parallel, err := runParallel(parallelSpec(m), 6, 50, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(parallel) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(parallel), len(serial))
		}
		for i := range serial {
			if parallel[i].Result.Steps != serial[i].Result.Steps ||
				parallel[i].Result.TotalDeflections != serial[i].Result.TotalDeflections ||
				parallel[i].Phi0 != serial[i].Phi0 {
				t.Errorf("workers=%d trial %d: parallel (%d, %d, %d) != serial (%d, %d, %d)",
					workers, i,
					parallel[i].Result.Steps, parallel[i].Result.TotalDeflections, parallel[i].Phi0,
					serial[i].Result.Steps, serial[i].Result.TotalDeflections, serial[i].Phi0)
			}
		}
	}
}

func TestParallelEdgeCases(t *testing.T) {
	m := mesh.MustNew(2, 6)
	if res, err := runParallel(parallelSpec(m), 0, 0, 4); err != nil || res != nil {
		t.Errorf("zero trials: %v, %v", res, err)
	}
	// Workers above trial count.
	res, err := runParallel(parallelSpec(m), 2, 0, 100)
	if err != nil || len(res) != 2 {
		t.Errorf("more workers than trials: %v, %v", res, err)
	}
}

func TestParallelPropagatesErrors(t *testing.T) {
	m := mesh.MustNew(2, 6)
	spec := parallelSpec(m)
	spec.NewWorkload = func(rng *rand.Rand) ([]*sim.Packet, error) {
		return workload.UniformRandom(m, 1<<20, rng) // always fails
	}
	if _, err := runParallel(spec, 3, 0, 2); err == nil {
		t.Error("workload error not propagated")
	}
}
