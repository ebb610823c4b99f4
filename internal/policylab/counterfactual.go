package policylab

import (
	"fmt"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
)

// ReplayConfig configures a counterfactual replay: re-run the window of
// Steps steps after a checkpoint under the original priority order and
// under each alternative, and score how the executions diverge.
type ReplayConfig struct {
	// Baseline is the policy spec of the run the checkpoint was taken from
	// (the same string passed to the original run's -policy). Replay
	// verifies it constructs a policy whose display name matches the
	// snapshot, exactly like resuming a checkpoint does.
	Baseline string
	// Alternatives are the policy specs to replay the window under.
	Alternatives []string
	// Steps is the window length; ≤ 0 means DefaultReplaySteps.
	Steps int
	// Arrivals rebuilds the run's injection source; required iff the
	// snapshot was taken from an arrival-driven run (the source's internal
	// state rides in the snapshot and is restored into it).
	Arrivals *spec.ArrivalSpec
}

// DefaultReplaySteps is the window length when ReplayConfig.Steps is unset.
const DefaultReplaySteps = 128

// Outcome scores one arm of a replay over the window.
type Outcome struct {
	// Policy is the arm's policy display name.
	Policy string `json:"policy"`
	// Steps is the number of steps actually executed (< the window length
	// when the arm drained the network first).
	Steps int `json:"steps"`
	// Delivered counts packets delivered during the window.
	Delivered int `json:"delivered"`
	// Deflections counts deflections issued during the window.
	Deflections int64 `json:"deflections"`
	// MeanDelay is the mean delay (arrival - injection) of the packets
	// delivered during the window (0 if none were).
	MeanDelay float64 `json:"mean_delay"`
	// Potential is the distance-potential trajectory: after each executed
	// step, the sum over live packets of their distance to destination.
	Potential []int64 `json:"potential"`
	// FinalHash is the engine's configuration hash after the window.
	FinalHash uint64 `json:"final_hash"`
	// Livelocked reports the arm livelocked inside the window.
	Livelocked bool `json:"livelocked,omitempty"`
}

// Divergence is an alternative arm's outcome scored against the baseline.
type Divergence struct {
	Outcome
	// DeliveredDelta and DeflectionsDelta are alternative minus baseline.
	DeliveredDelta   int   `json:"delivered_delta"`
	DeflectionsDelta int64 `json:"deflections_delta"`
	// PotentialL1 is the mean absolute difference between the two potential
	// trajectories (shorter trajectories are padded with their final value,
	// so an arm that drains early is compared at its drained level).
	PotentialL1 float64 `json:"potential_l1"`
	// FirstDiverge is the first window step whose post-step configuration
	// hash differs from the baseline's (-1 when the arm tracked the
	// baseline bit-for-bit to the end).
	FirstDiverge int `json:"first_diverge"`
}

// Report is the result of one counterfactual replay.
type Report struct {
	// CheckpointTime is the step the snapshot was taken at; the window is
	// [CheckpointTime, CheckpointTime+Steps).
	CheckpointTime int `json:"checkpoint_time"`
	// Live is the number of packets in flight at the checkpoint.
	Live int `json:"live"`
	// Baseline is the original policy's outcome over the window.
	Baseline Outcome `json:"baseline"`
	// Alternatives are the counterfactual arms in config order.
	Alternatives []Divergence `json:"alternatives"`
}

// Replay runs the counterfactual: one baseline arm plus one arm per
// alternative, each restored from its own copy of snap into a fresh engine.
// Everything is deterministic — same snapshot and same alternatives give a
// bit-identical Report.
func Replay(snap *sim.Snapshot, cfg ReplayConfig) (*Report, error) {
	if snap.HasFaults {
		return nil, fmt.Errorf("policylab: counterfactual replay under a fault model is not supported")
	}
	steps := cfg.Steps
	if steps <= 0 {
		steps = DefaultReplaySteps
	}
	m, err := buildMesh(snap)
	if err != nil {
		return nil, err
	}
	basePol, err := spec.NewPolicy(cfg.Baseline)
	if err != nil {
		return nil, err
	}
	if basePol.Name() != snap.PolicyName {
		return nil, fmt.Errorf("policylab: baseline policy %q is %q, but the checkpoint was written by %q (pass the original run's -policy)",
			cfg.Baseline, basePol.Name(), snap.PolicyName)
	}
	live := 0
	for i := range snap.Packets {
		if snap.Packets[i].ArrivedAt < 0 && snap.Packets[i].DroppedAt < 0 {
			live++
		}
	}
	rep := &Report{CheckpointTime: snap.Time, Live: live}
	base, baseHashes, err := runArm(m, snap, basePol, steps, cfg.Arrivals, snap.PolicyName)
	if err != nil {
		return nil, fmt.Errorf("policylab: baseline arm: %w", err)
	}
	rep.Baseline = base
	for _, alt := range cfg.Alternatives {
		pol, err := spec.NewPolicy(alt)
		if err != nil {
			return nil, err
		}
		out, hashes, err := runArm(m, snap, pol, steps, cfg.Arrivals, pol.Name())
		if err != nil {
			return nil, fmt.Errorf("policylab: arm %q: %w", alt, err)
		}
		rep.Alternatives = append(rep.Alternatives, score(base, baseHashes, out, hashes))
	}
	return rep, nil
}

// buildMesh reconstructs the run's mesh from the snapshot geometry.
func buildMesh(snap *sim.Snapshot) (*mesh.Mesh, error) {
	if snap.MeshWrap {
		return mesh.NewTorus(snap.MeshDim, snap.MeshSide)
	}
	return mesh.New(snap.MeshDim, snap.MeshSide)
}

// runArm restores a copy of snap into a fresh engine running pol and steps
// it through the window. The snapshot copy's PolicyName is rewritten to the
// arm's policy — that is the entire counterfactual: identical state,
// identical RNG stream, different priority order. MaxSteps is raised (in
// snapshot and options together, keeping Restore's guard satisfied) so the
// window always fits the budget.
func runArm(m *mesh.Mesh, snap *sim.Snapshot, pol sim.Policy, steps int, arrivals *spec.ArrivalSpec, name string) (Outcome, []uint64, error) {
	s := *snap
	s.PolicyName = name
	end := s.Time + steps
	if s.MaxSteps < end {
		s.MaxSteps = end
	}
	opts := sim.Options{
		MaxSteps:       s.MaxSteps,
		Seed:           s.Seed,
		Validation:     s.Validation,
		DetectLivelock: s.DetectLive,
	}
	e, err := sim.New(m, pol, nil, opts)
	if err != nil {
		return Outcome{}, nil, err
	}
	if s.HasInjector {
		src, err := spec.BuildArrivals(arrivals, m)
		if err != nil {
			return Outcome{}, nil, err
		}
		if src == nil {
			return Outcome{}, nil, fmt.Errorf("the checkpoint carries injector state; the original run's -arrivals spec is required")
		}
		e.SetInjector(src)
	} else if arrivals != nil {
		return Outcome{}, nil, fmt.Errorf("the checkpoint has no injector, but an arrivals spec was given")
	}
	if err := e.Restore(&s); err != nil {
		return Outcome{}, nil, err
	}

	delivered0, deflect0 := tally(e)
	out := Outcome{Policy: name}
	hashes := make([]uint64, 0, steps)
	for t := 0; t < steps; t++ {
		if e.Done() && !s.HasInjector {
			break
		}
		if e.Livelocked() || e.Time() >= opts.MaxSteps {
			break
		}
		if err := e.Step(); err != nil {
			return Outcome{}, nil, err
		}
		out.Steps++
		out.Potential = append(out.Potential, potential(e, m))
		hashes = append(hashes, e.StateHash())
	}
	out.FinalHash = e.StateHash()
	out.Livelocked = e.Livelocked()
	delivered1, deflect1 := tally(e)
	out.Deflections = deflect1 - deflect0
	ckptTime := snap.Time
	var sum, cnt int64
	for _, p := range e.Packets() {
		if p.Arrived() && p.ArrivedAt > ckptTime {
			sum += int64(p.ArrivedAt - p.InjectedAt)
			cnt++
		}
	}
	out.Delivered = delivered1 - delivered0
	if cnt > 0 {
		out.MeanDelay = float64(sum) / float64(cnt)
	}
	return out, hashes, nil
}

// tally counts delivered packets and summed deflections over the engine's
// whole packet population.
func tally(e *sim.Engine) (delivered int, deflections int64) {
	for _, p := range e.Packets() {
		if p.Arrived() {
			delivered++
		}
		deflections += int64(p.Deflections)
	}
	return delivered, deflections
}

// potential is the distance potential of the live population: the sum over
// packets in flight of their distance to destination — the quantity the
// paper's Property 8 forces downward at loaded nodes.
func potential(e *sim.Engine, m *mesh.Mesh) int64 {
	var phi int64
	for _, p := range e.Packets() {
		if !p.Arrived() && !p.Dropped() {
			phi += int64(m.Dist(p.Node, p.Dst))
		}
	}
	return phi
}

// score computes an alternative's divergence from the baseline.
func score(base Outcome, baseHashes []uint64, alt Outcome, altHashes []uint64) Divergence {
	d := Divergence{
		Outcome:          alt,
		DeliveredDelta:   alt.Delivered - base.Delivered,
		DeflectionsDelta: alt.Deflections - base.Deflections,
		FirstDiverge:     -1,
	}
	n := max(len(base.Potential), len(alt.Potential))
	var l1 float64
	for i := 0; i < n; i++ {
		l1 += absF(float64(trajAt(alt.Potential, i) - trajAt(base.Potential, i)))
	}
	if n > 0 {
		d.PotentialL1 = l1 / float64(n)
	}
	hn := max(len(baseHashes), len(altHashes))
	for i := 0; i < hn; i++ {
		if i >= len(baseHashes) || i >= len(altHashes) || baseHashes[i] != altHashes[i] {
			d.FirstDiverge = i
			break
		}
	}
	return d
}

// trajAt reads a trajectory with its final value extended past the end
// (an arm that drained early holds its drained level); empty trajectories
// read as 0.
func trajAt(traj []int64, i int) int64 {
	if len(traj) == 0 {
		return 0
	}
	if i >= len(traj) {
		return traj[len(traj)-1]
	}
	return traj[i]
}

func absF(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
