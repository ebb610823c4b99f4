package analysis

import (
	"fmt"
	"math/rand"

	"hotpotato/internal/core"
	"hotpotato/internal/mesh"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
)

// TrialSpec describes one repeatable simulation trial.
type TrialSpec struct {
	// Mesh is the network.
	Mesh *mesh.Mesh
	// NewPolicy constructs a fresh policy (policies carry scratch state and
	// are not shared between engines).
	NewPolicy func() sim.Policy
	// NewWorkload generates the packets for a trial from the trial RNG.
	NewWorkload func(rng *rand.Rand) ([]*sim.Packet, error)
	// Seed seeds both workload generation and engine tie-breaking.
	Seed int64
	// Track attaches a potential tracker.
	Track bool
	// Validation is the engine validation level (default ValidateGreedy).
	Validation sim.ValidationLevel
	// MaxSteps caps the run (default sim.DefaultMaxSteps).
	MaxSteps int
	// DetectLivelock enables the engine's livelock detector.
	DetectLivelock bool
	// Shards, when non-empty, runs the trial on the sharded engine with
	// this PxQ spatial decomposition (2-D meshes only; bit-identical to the
	// single engine, see internal/shard). Mutually exclusive with Track and
	// NewFaults.
	Shards string
	// NewFaults constructs a fresh fault model for the trial (models are
	// stateful, so each engine needs its own). Nil runs on the intact mesh.
	NewFaults func() sim.FaultModel
	// FaultFate selects what a node crash does to the packets inside
	// (drop vs absorb); only consulted when NewFaults is set.
	FaultFate sim.PacketFate
	// NewInjector constructs a fresh arrival-driven packet source for the
	// trial (sources are stateful, so each engine needs its own); built for
	// example by spec.BuildArrivals. Nil runs the batch workload alone.
	// Mutually exclusive with Track (the tracker reconstructs runs from the
	// initial batch).
	NewInjector func() (sim.Injector, error)
}

// TrialResult is the outcome of one trial.
type TrialResult struct {
	// Result is the engine summary.
	Result *sim.Result
	// Packets are the routed packets (post-run state).
	Packets []*sim.Packet
	// DMax is the largest source-destination distance of the instance.
	DMax int
	// Violations holds the tracker counters (zero value if Track was off).
	Violations core.Violations
	// Phi0 is the initial potential (0 if Track was off).
	Phi0 int64
	// MinSpare is the smallest live spare potential seen (0 if Track off).
	MinSpare int
	// MinPhi is the smallest live packet potential seen (0 if Track off).
	MinPhi int
	// Tracker is the attached tracker, or nil.
	Tracker *core.Tracker
}

// RunTrial executes one trial.
func RunTrial(spec TrialSpec) (*TrialResult, error) {
	if spec.Mesh == nil || spec.NewPolicy == nil || spec.NewWorkload == nil {
		return nil, fmt.Errorf("analysis: trial spec missing mesh, policy or workload")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	packets, err := spec.NewWorkload(rng)
	if err != nil {
		return nil, fmt.Errorf("analysis: workload: %w", err)
	}
	validation := spec.Validation
	if validation == sim.ValidateOff {
		validation = sim.ValidateGreedy
	}
	if spec.Shards != "" {
		return runShardedTrial(spec, packets, validation)
	}
	e, err := sim.New(spec.Mesh, spec.NewPolicy(), packets, sim.Options{
		Seed:           spec.Seed + 1,
		Validation:     validation,
		MaxSteps:       spec.MaxSteps,
		DetectLivelock: spec.DetectLivelock,
	})
	if err != nil {
		return nil, err
	}
	if spec.NewFaults != nil {
		e.SetFaults(spec.NewFaults(), spec.FaultFate)
	}
	if spec.NewInjector != nil {
		if spec.Track {
			return nil, fmt.Errorf("analysis: trials cannot combine NewInjector with Track (the tracker reconstructs runs from the initial batch)")
		}
		inj, err := spec.NewInjector()
		if err != nil {
			return nil, fmt.Errorf("analysis: injector: %w", err)
		}
		e.SetInjector(inj)
	}
	tr := &TrialResult{Packets: packets}
	var tracker *core.Tracker
	if spec.Track {
		tracker = core.NewTracker(spec.Mesh, packets, core.TrackerOptions{SelfCheckEvery: 64})
		e.AddObserver(tracker)
	}
	res, err := e.Run()
	if err != nil {
		return nil, err
	}
	tr.Result = res
	for _, p := range packets {
		if d := spec.Mesh.Dist(p.Src, p.Dst); d > tr.DMax {
			tr.DMax = d
		}
	}
	if tracker != nil {
		tr.Violations = tracker.Violations()
		tr.Phi0 = tracker.Phi0()
		tr.MinSpare = tracker.MinSpare()
		tr.MinPhi = tracker.MinPhi()
		tr.Tracker = tracker
	}
	return tr, nil
}

// runShardedTrial is RunTrial's sharded-engine path: same seeds, same
// summary, computed by the spatially-decomposed engine. The outcome is
// bit-identical to the single engine's (internal/shard's parity contract),
// so sharded sweep cells are directly comparable to unsharded ones.
func runShardedTrial(spec TrialSpec, packets []*sim.Packet, validation sim.ValidationLevel) (*TrialResult, error) {
	switch {
	case spec.Track:
		return nil, fmt.Errorf("analysis: sharded trials cannot attach the potential tracker (observers see one engine's move stream)")
	case spec.NewFaults != nil:
		return nil, fmt.Errorf("analysis: sharded trials do not support fault injection")
	}
	grid, err := shard.ParseGrid(spec.Shards)
	if err != nil {
		return nil, err
	}
	e, err := shard.New(spec.Mesh, spec.NewPolicy(), packets, shard.Options{
		Grid:           grid,
		Seed:           spec.Seed + 1,
		Validation:     validation,
		MaxSteps:       spec.MaxSteps,
		DetectLivelock: spec.DetectLivelock,
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if spec.NewInjector != nil {
		inj, err := spec.NewInjector()
		if err != nil {
			return nil, fmt.Errorf("analysis: injector: %w", err)
		}
		e.SetInjector(inj)
	}
	res, err := e.Run()
	if err != nil {
		return nil, err
	}
	tr := &TrialResult{Packets: packets, Result: res}
	for _, p := range packets {
		if d := spec.Mesh.Dist(p.Src, p.Dst); d > tr.DMax {
			tr.DMax = d
		}
	}
	return tr, nil
}

// RunTrials executes the spec for seeds seedBase..seedBase+trials-1 and
// returns all results.
func RunTrials(spec TrialSpec, trials int, seedBase int64) ([]*TrialResult, error) {
	out := make([]*TrialResult, 0, trials)
	for i := 0; i < trials; i++ {
		spec.Seed = seedBase + int64(i)
		res, err := RunTrial(spec)
		if err != nil {
			return nil, fmt.Errorf("analysis: trial %d: %w", i, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Steps extracts the routing times of a result set.
func Steps(results []*TrialResult) []int {
	out := make([]int, len(results))
	for i, r := range results {
		out[i] = r.Result.Steps
	}
	return out
}

// MaxSteps returns the largest routing time of a result set.
func MaxSteps(results []*TrialResult) int {
	maxv := 0
	for _, r := range results {
		if r.Result.Steps > maxv {
			maxv = r.Result.Steps
		}
	}
	return maxv
}

// TotalViolations sums all tracker violation counters of a result set.
func TotalViolations(results []*TrialResult) core.Violations {
	var v core.Violations
	for _, r := range results {
		v.Property8 += r.Violations.Property8
		v.Corollary10 += r.Violations.Corollary10
		v.Lemma12 += r.Violations.Lemma12
		v.Lemma14 += r.Violations.Lemma14
		v.Lemma15 += r.Violations.Lemma15
		v.PhiRange += r.Violations.PhiRange
		v.PhiZeroLive += r.Violations.PhiZeroLive
		v.TypeADeflector += r.Violations.TypeADeflector
		v.SwitchAmbiguous += r.Violations.SwitchAmbiguous
		v.Conservation += r.Violations.Conservation
	}
	return v
}

// AllDelivered reports whether every trial delivered every packet.
func AllDelivered(results []*TrialResult) bool {
	for _, r := range results {
		if r.Result.Delivered != r.Result.Total {
			return false
		}
	}
	return true
}
