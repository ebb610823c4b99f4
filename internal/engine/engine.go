// Package engine opens a run. The three engines — sim.Engine, the
// in-process shard.Engine and the dshard.Coordinator — compute the same run
// bit for bit (the parity suites prove it), so which of them executes a
// problem is an execution detail. A frontend describes the problem and the
// execution it wants as one Spec; Open checks the one compatibility table
// (Spec.Validate), builds the engine the Spec selects and returns a Run that
// hides which engine steps, how it is hooked and how and where it persists.
//
// Nothing imports this package but frontends (cmd/hotpotato, cmd/shardcoord,
// internal/server).
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"time"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/dshard"
	"hotpotato/internal/mesh"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
	"hotpotato/internal/traffic"
)

// ErrUnsupported is wrapped by every refusal of a feature combination the
// selected engine cannot run (see Spec.Validate), on every frontend.
var ErrUnsupported = errors.New("unsupported combination")

// ErrBadCheckpoint matches every reason Open cannot use the checkpoint at
// Spec.ResumeFrom, whichever format the Spec selects: checkpoint.ErrBadFile
// for a snapshot file, shard.ErrBadCheckpoint for a shard directory.
var ErrBadCheckpoint = errors.New("engine: unusable checkpoint")

// badCheckpointError tags an error as ErrBadCheckpoint, text untouched.
type badCheckpointError struct{ error }

func (e badCheckpointError) Unwrap() error        { return e.error }
func (e badCheckpointError) Is(target error) bool { return target == ErrBadCheckpoint }

func badCheckpoint(err error) error {
	if errors.Is(err, checkpoint.ErrBadFile) || errors.Is(err, shard.ErrBadCheckpoint) {
		return badCheckpointError{err}
	}
	return err
}

// resumeErr explains a checkpoint the freshly built engine refused.
func resumeErr(path string, err error) error {
	return badCheckpoint(fmt.Errorf("resume from %s: %w (pass the same flags or job spec as the original run)", path, err))
}

// loopbackToken is the shared secret between a coordinator and the
// in-process workers Open spawns for it: the listener is per-run and
// ephemeral, so it guards against a stray worker, not an adversary.
const loopbackToken = "engine-loopback"

// Spec is one routing problem plus how to execute it. The zero value of
// every execution field means "the plain single engine, nothing persisted".
type Spec struct {
	// Dim, Side and Torus describe the mesh.
	Dim, Side int
	Torus     bool
	// Policy and Validation are spec registry names ("" = greedy validation).
	Policy     string
	Validation string
	// Workload (with its nested Arrivals) and K describe the traffic. The
	// workload is drawn from Seed and the engine runs with Seed+1.
	Workload spec.WorkloadSpec
	K        int
	Seed     int64
	// MaxSteps bounds the run (0 = engine default), MaxWall its wall clock
	// (0 = unlimited); DetectLivelock enables configuration hashing.
	MaxSteps       int
	MaxWall        time.Duration
	DetectLivelock bool
	// Fault optionally installs a fault model (single engine only).
	Fault *spec.FaultConfig

	// Grid, when non-zero, runs the sharded engine with that decomposition;
	// DistWorkers > 0 distributes its shards over that many dshard workers.
	// Dist is the coordinator's transport configuration (listen address,
	// token, spawner — nil Spawn waits for external workers — timeouts,
	// budgets, Logf); nil means in-process workers over loopback TCP. Its
	// other fields are filled from this Spec.
	Grid        shard.Grid
	DistWorkers int
	Dist        *dshard.Options

	// CheckpointPath, when set, is where state is saved — a snapshot file on
	// the single engine, a directory on the sharded ones (CheckpointExt):
	// every CheckpointEvery steps (0 = not periodically, except that a
	// distributed run persists on its coordinator's rollback cadence, 256
	// steps by default) and whenever the run is stopped early.
	// CheckpointFormat is "binary" (default) or "json".
	CheckpointPath   string
	CheckpointEvery  int
	CheckpointFormat string
	// ResumeFrom names a checkpoint (of this Spec's format) to restore
	// instead of generating the workload.
	ResumeFrom string
}

func (s Spec) sharded() bool { return s.Grid != (shard.Grid{}) }

// CheckpointExt is the conventional suffix of the Spec's checkpoint format:
// ".hpck" for the single engine's snapshot file, ".shards" for the directory
// in-process and distributed sharded runs share (and resume from each other,
// on any grid).
func (s Spec) CheckpointExt() string {
	if s.sharded() {
		return ".shards"
	}
	return ".hpck"
}

func parseFormat(name string) (checkpoint.Format, error) {
	switch name {
	case "binary", "":
		return checkpoint.Binary, nil
	case "json":
		return checkpoint.JSON, nil
	}
	return 0, fmt.Errorf("unknown checkpoint format %q (want binary or json)", name)
}

// Validate rejects a Spec that can never open, cheaply: no mesh or workload
// is materialized (a grid wider than the mesh or a fault script naming an
// off-mesh node still surfaces at Open). Its last block is the only
// compatibility table between features and engines; those refusals wrap
// ErrUnsupported.
func (s Spec) Validate() error {
	switch {
	case s.Dim < 1:
		return fmt.Errorf("dim must be >= 1, got %d", s.Dim)
	case s.Side < 2:
		return fmt.Errorf("side must be >= 2, got %d", s.Side)
	case s.MaxSteps < 0:
		return fmt.Errorf("max steps must be >= 0, got %d", s.MaxSteps)
	case s.DistWorkers < 0:
		return fmt.Errorf("dist workers must be >= 0, got %d", s.DistWorkers)
	}
	if err := spec.CheckPolicy(s.Policy); err != nil {
		return err
	}
	if err := s.Workload.Validate(); err != nil {
		return err
	}
	if _, err := spec.ParseValidation(s.Validation); err != nil {
		return err
	}
	if _, err := parseFormat(s.CheckpointFormat); err != nil {
		return err
	}
	faults := false
	if f := s.Fault; f != nil {
		if _, err := spec.ParseFate(f.Fate); err != nil {
			return err
		}
		if f.Rate < 0 || f.CrashRate < 0 {
			return fmt.Errorf("fault rates must be >= 0")
		}
		faults = f.Enabled()
	}

	switch {
	case s.DistWorkers > 0 && !s.sharded():
		return fmt.Errorf("%w: dist workers need shards (a PxQ grid for the workers to divide)", ErrUnsupported)
	case s.sharded() && s.Dim != 2:
		return fmt.Errorf("%w: shards need dim 2 (the sharded engine decomposes 2-D meshes), got dim %d", ErrUnsupported, s.Dim)
	case s.sharded() && faults:
		return fmt.Errorf("%w: sharded jobs do not support fault injection", ErrUnsupported)
	case s.DistWorkers > s.Grid.Count():
		return fmt.Errorf("%w: %d dist workers exceed the %s grid's %d shards", ErrUnsupported, s.DistWorkers, s.Grid, s.Grid.Count())
	case s.DistWorkers > 0 && s.Workload.Arrivals != nil:
		return fmt.Errorf("%w: distributed jobs do not support arrivals (injector state cannot ride a dshard checkpoint)", ErrUnsupported)
	}
	return nil
}

// stepper is what the three engines have in common once built.
type stepper interface {
	Progress() sim.Progress
	StateHash() uint64
	Close()
}

// Run is an opened run: one of the three engines, positioned at time 0 or
// at the resumed checkpoint. Progress, StateHash (on a distributed run valid
// only once Run has returned) and Close are the engine's own. Not safe for
// concurrent use.
type Run struct {
	stepper
	spec   Spec
	format checkpoint.Format

	mesh    *mesh.Mesh
	policy  sim.Policy
	packets []*sim.Packet
	source  *traffic.Source

	sim   *sim.Engine
	shard *shard.Engine
	coord *dshard.Coordinator
	saved string
}

// Open validates the Spec and builds the engine it selects: workload drawn
// or checkpoint restored, faults and arrival source installed, a distributed
// run's listener bound. Each call builds fresh state; the caller must Close.
func Open(s Spec) (*Run, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	r := &Run{spec: s}
	r.format, _ = parseFormat(s.CheckpointFormat) // Validate vouched for the names
	lvl, _ := spec.ParseValidation(s.Validation)
	var err error
	if s.Torus {
		r.mesh, err = mesh.NewTorus(s.Dim, s.Side)
	} else {
		r.mesh, err = mesh.New(s.Dim, s.Side)
	}
	if err != nil {
		return nil, err
	}
	if r.policy, err = spec.NewPolicy(s.Policy); err != nil {
		return nil, err
	}
	if s.ResumeFrom == "" { // a resumed run takes its packets from the checkpoint
		r.packets, err = spec.BuildWorkload(s.Workload, r.mesh, s.K, rand.New(rand.NewSource(s.Seed)))
		if err != nil {
			return nil, err
		}
	}
	// The source is built resume or not: a restore reinstates its state, so
	// it must be installed first.
	if r.source, err = spec.BuildArrivals(s.Workload.Arrivals, r.mesh); err != nil {
		return nil, err
	}
	switch {
	case s.DistWorkers > 0:
		err = r.openDist(lvl)
	case s.sharded():
		err = r.openShard(lvl)
	default:
		err = r.openSim(lvl)
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}

func (r *Run) openSim(lvl sim.ValidationLevel) error {
	s := &r.spec
	e, err := sim.New(r.mesh, r.policy, r.packets, sim.Options{
		Seed:           s.Seed + 1,
		MaxSteps:       s.MaxSteps,
		Validation:     lvl,
		DetectLivelock: s.DetectLivelock,
		MaxWallTime:    s.MaxWall,
	})
	if err != nil {
		return err
	}
	if s.Fault != nil && s.Fault.Enabled() {
		model, err := spec.NewFaults(r.mesh, *s.Fault)
		if err != nil {
			return err
		}
		fate, _ := spec.ParseFate(s.Fault.Fate)
		e.SetFaults(model, fate)
	}
	if r.source != nil {
		e.SetInjector(r.source)
	}
	if s.ResumeFrom != "" {
		snap, err := checkpoint.Load(s.ResumeFrom)
		if err != nil {
			return badCheckpoint(err)
		}
		if err := e.Restore(snap); err != nil {
			return resumeErr(s.ResumeFrom, err)
		}
	}
	r.sim, r.stepper = e, e
	return nil
}

func (r *Run) openShard(lvl sim.ValidationLevel) error {
	s := &r.spec
	e, err := shard.New(r.mesh, r.policy, r.packets, shard.Options{
		Grid:           s.Grid,
		Seed:           s.Seed + 1,
		MaxSteps:       s.MaxSteps,
		Validation:     lvl,
		DetectLivelock: s.DetectLivelock,
		MaxWallTime:    s.MaxWall,
	})
	if err != nil {
		return err
	}
	if r.source != nil {
		e.SetInjector(r.source)
	}
	if s.ResumeFrom != "" {
		ck, err := shard.LoadDir(s.ResumeFrom)
		if err != nil {
			e.Close()
			return badCheckpoint(err)
		}
		if err := e.Restore(ck); err != nil {
			e.Close()
			return resumeErr(s.ResumeFrom, err)
		}
	}
	r.shard, r.stepper = e, e
	return nil
}

func (r *Run) openDist(lvl sim.ValidationLevel) error {
	s := &r.spec
	opts := dshard.Options{
		Token: loopbackToken,
		Spawn: dshard.InProcessSpawner(dshard.WorkerOptions{Token: loopbackToken, Policies: spec.NewPolicy}),
	}
	if s.Dist != nil {
		opts = *s.Dist
	}
	opts.Workers = s.DistWorkers
	opts.Policies = spec.NewPolicy
	opts.CheckpointEvery = s.CheckpointEvery
	opts.CheckpointDir = s.CheckpointPath
	opts.CheckpointFormat = r.format
	opts.MaxWallTime = s.MaxWall
	if s.ResumeFrom != "" {
		var err error
		if opts.Resume, err = shard.LoadDir(s.ResumeFrom); err != nil {
			return badCheckpoint(err)
		}
	}
	c, err := dshard.New(dshard.Spec{
		Side:           s.Side,
		Wrap:           s.Torus,
		Policy:         s.Policy,
		Grid:           s.Grid,
		Seed:           s.Seed + 1,
		MaxSteps:       s.MaxSteps,
		Validation:     lvl,
		DetectLivelock: s.DetectLivelock,
	}, r.packets, opts)
	if err != nil {
		if s.ResumeFrom != "" {
			err = resumeErr(s.ResumeFrom, err)
		}
		return err
	}
	r.coord, r.stepper = c, c
	return nil
}

// Run steps the engine until the run ends — all delivered, livelock, step
// budget — or ctx or Spec.MaxWall stops it, calling onStep (when non-nil)
// after every completed step. The contract is the engines': a deadline ends
// the run with Result.DeadlineExceeded and a nil error, cancellation returns
// the partial Result alongside context.Canceled, and any other error comes
// with a nil Result.
//
// With Spec.CheckpointPath set, a run stopped early always leaves a loadable
// checkpoint of the state it stopped in — also when stopped before its first
// step, where the in-process engines' own flush finds no unsaved progress:
// the initial state is the run itself.
func (r *Run) Run(ctx context.Context, onStep func()) (*sim.Result, error) {
	var hook func(int, int)
	if onStep != nil {
		hook = func(int, int) { onStep() }
	}
	var res *sim.Result
	var err error
	switch {
	case r.sim != nil:
		if onStep != nil {
			r.sim.AddObserver(sim.ObserverFunc(func(*sim.StepRecord) { onStep() }))
		}
		res, err = runSaving(ctx, r, r.sim.RunCheckpointed, r.sim.Snapshot, checkpoint.Save)
	case r.shard != nil:
		r.shard.StepHook = hook
		res, err = runSaving(ctx, r, r.shard.RunCheckpointed, r.shard.Checkpoint, shard.SaveDir)
	default:
		r.coord.StepHook = hook // the coordinator persists by itself
		res, err = r.coord.Run(ctx)
		if HasCheckpoint(r.spec.CheckpointPath) {
			r.saved = r.spec.CheckpointPath
		}
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		return nil, err
	}
	return res, err
}

// runSaving drives an in-process engine's RunCheckpointed with the Spec's
// checkpoint sink and applies the early-stop rule. T is the engine's
// checkpoint type; write replaces the file atomically.
func runSaving[T any](ctx context.Context, r *Run,
	run func(context.Context, int, func(*T) error) (*sim.Result, error),
	capture func() (*T, error), write func(string, *T, checkpoint.Format) error) (*sim.Result, error) {
	path, every := r.spec.CheckpointPath, r.spec.CheckpointEvery
	if path == "" {
		return run(ctx, 0, nil)
	}
	save := func(v *T) error {
		if err := write(path, v, r.format); err != nil {
			return err
		}
		r.saved = path
		return nil
	}
	res, err := run(ctx, every, save)
	if res != nil && (err != nil || res.DeadlineExceeded) && r.saved == "" {
		v, cerr := capture()
		if cerr == nil {
			cerr = save(v)
		}
		if cerr != nil {
			return nil, cerr
		}
	}
	return res, err
}

// Saved returns the path of the last checkpoint this Run wrote ("" if none).
func (r *Run) Saved() string { return r.saved }

// Sim returns the single engine, for tooling that observes one engine's move
// stream (trackers, recorders, the conflict tap) — nil on a sharded run,
// which is how frontends refuse such tooling.
func (r *Run) Sim() *sim.Engine { return r.sim }

// Mesh, Policy, Packets (the initial population; nil on resume) and Source
// (nil without arrivals) are what Open built the engine from.
func (r *Run) Mesh() *mesh.Mesh        { return r.mesh }
func (r *Run) Policy() sim.Policy      { return r.policy }
func (r *Run) Packets() []*sim.Packet  { return r.packets }
func (r *Run) Source() *traffic.Source { return r.source }

// Dist returns the coordinator of a distributed run (its listen address and
// recovery count are what cmd/shardcoord reports); nil otherwise.
func (r *Run) Dist() *dshard.Coordinator { return r.coord }

// HasCheckpoint reports whether path holds a checkpoint some Spec could
// resume: a snapshot file, or a shard directory with a committed manifest.
func HasCheckpoint(path string) bool {
	fi, err := os.Stat(path)
	return err == nil && (!fi.IsDir() || shard.HasCheckpoint(path))
}

// RemoveCheckpoint deletes the checkpoint at path, file or directory ("" and
// a path holding nothing are no-ops).
func RemoveCheckpoint(path string) error { return os.RemoveAll(path) }
