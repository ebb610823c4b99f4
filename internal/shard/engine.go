package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"hotpotato/internal/mesh"
	"hotpotato/internal/rng"
	"hotpotato/internal/sim"
)

// ErrShardPanic wraps a panic that escaped one shard's stepping goroutine.
// The other shards finish their phase normally; with Options.MaxRecoveries
// the run rolls every shard back to the last coordinated checkpoint and
// retries, otherwise the error surfaces from Step/Run.
var ErrShardPanic = errors.New("shard: shard worker panicked")

// defaultRecoveryCadence is how often RunCheckpointed captures an in-memory
// rollback checkpoint when recovery is enabled but no periodic save cadence
// was requested.
const defaultRecoveryCadence = 256

// Options configures a sharded Engine. The simulation semantics (seed,
// validation, livelock detection, step budget) are those of sim.Options;
// Grid adds the decomposition and MaxRecoveries the crash policy.
type Options struct {
	// Grid is the P x Q shard decomposition; the zero value means 1x1.
	Grid Grid
	// MaxSteps bounds the simulation length; 0 means sim.DefaultMaxSteps.
	MaxSteps int
	// Seed seeds tie-break randomness. Derivation is per (seed, step,
	// global node) — sim.NodeSeed — so results are identical across shard
	// geometries and match the single engine's.
	Seed int64
	// Validation selects per-step checking of policy output.
	Validation sim.ValidationLevel
	// DetectLivelock enables configuration hashing (deterministic policies
	// only), bit-compatible with the single engine's detector.
	DetectLivelock bool
	// MaxRecoveries is how many times a panicked shard may be recovered by
	// rolling all shards back to the last coordinated checkpoint. 0 means a
	// panic surfaces as an error immediately.
	MaxRecoveries int
	// MaxWallTime bounds the wall-clock duration of Run; 0 means no limit.
	MaxWallTime time.Duration
}

// phase identifiers broadcast to the shard goroutines at each barrier.
const (
	phaseRoute = iota
	phaseApply
)

type phaseCmd struct {
	phase int
	t     int
}

// shardWorker is one shard of an Engine: a Node hosting that shard alone,
// stepped by its own goroutine with its own policy clone. It is owned by the
// goroutine during a phase and by the stepping goroutine between barriers;
// it deliberately holds no reference to the Engine, so an abandoned engine
// can be collected and its finalizer can stop the goroutines.
type shardWorker struct {
	idx  int
	node *Node

	// out is the egress the shard's last route produced; in is the buckets
	// addressed to it, gathered from every out at the route barrier.
	out, in []Bucket
	// rep and arrived are the last apply's report and arrived packets.
	rep     ApplyReport
	arrived []*sim.Packet
	err     error

	cmds chan phaseCmd
	wg   *sync.WaitGroup
}

// Engine steps one routing problem across P*Q shard goroutines with
// lock-step barriers: every shard's Node routes, then every Node applies the
// moves destined to it (its own plus its neighbors' halo transfers, handed
// over in memory), in an order chosen so the resulting configurations are
// bit-identical to a single engine's. See the package comment for the
// determinism argument. The run's global state is its embedded Ledger.
//
// The Engine itself is not safe for concurrent use: one goroutine drives
// Step/Run and may inspect state between steps.
type Engine struct {
	Ledger

	mesh   *mesh.Mesh
	policy sim.Policy
	pt     *Partition
	shards []*shardWorker
	opts   Options
	// words is StateHash's per-shard scratch.
	words [][]uint64

	// Continuous traffic. injSrc is seeded rng.Mix(opts.Seed) — exactly the
	// single engine's injection stream (tie-breaks come from per-(seed, step,
	// node) streams on both), so an injector draws identical values on both
	// engines and the parity contract extends to dynamic traffic.
	injector sim.Injector
	injSrc   rng.SplitMix64
	injRng   *rand.Rand

	// StepHook, when set before running, is called after every completed
	// step with the new time and live count (progress reporting).
	StepHook func(t, live int)

	wg        *sync.WaitGroup
	closeOnce sync.Once
}

// New validates the initial configuration and returns a sharded engine
// positioned at time 0. The rules are sim.New's: packets sit at their
// sources with unique IDs, no node originates more packets than its
// out-degree, and source==destination packets are absorbed immediately.
// The mesh must be 2-dimensional. With more than one shard the policy must
// implement sim.ClonablePolicy (each shard routes with its own clone).
func New(m *mesh.Mesh, policy sim.Policy, packets []*sim.Packet, opts Options) (*Engine, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil mesh", sim.ErrBadInjection)
	}
	if policy == nil {
		return nil, fmt.Errorf("%w: nil policy", sim.ErrBadInjection)
	}
	opts.Grid = opts.Grid.norm()
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = sim.DefaultMaxSteps
	}
	pt, err := NewPartition(m, opts.Grid)
	if err != nil {
		return nil, err
	}
	n := opts.Grid.Count()
	e := &Engine{
		Ledger: NewLedger(opts.DetectLivelock && policy.Deterministic()),
		mesh:   m,
		policy: policy,
		pt:     pt,
		opts:   opts,
		shards: make([]*shardWorker, n),
		words:  make([][]uint64, n),
		wg:     new(sync.WaitGroup),
	}
	e.injSrc.Seed(rng.Mix(opts.Seed))
	e.injRng = rand.New(&e.injSrc)

	shardPolicy := func() sim.Policy { return policy }
	if n > 1 {
		cp, ok := policy.(sim.ClonablePolicy)
		if !ok {
			return nil, fmt.Errorf("%w: policy %s does not implement ClonablePolicy (required by grid %s)",
				sim.ErrBadInjection, policy.Name(), opts.Grid)
		}
		shardPolicy = func() sim.Policy { return cp.Clone() }
	}
	for idx := range e.shards {
		node, err := NewNode(m, shardPolicy(), opts.Grid, []int{idx}, opts.Seed, opts.Validation)
		if err != nil {
			return nil, err
		}
		e.shards[idx] = &shardWorker{idx: idx, node: node, cmds: make(chan phaseCmd, 1), wg: e.wg}
	}
	nextID, err := sim.AdmitInitial(m, packets, e.place)
	if err != nil {
		return nil, err
	}
	e.Admitted(packets, nextID)

	for _, w := range e.shards {
		go w.work()
	}
	// Stop the shard goroutines when the engine is collected, so callers
	// that never Close do not leak them (the goroutines reference only their
	// shardWorker, never the Engine, so collection is not prevented).
	runtime.SetFinalizer(e, (*Engine).Close)
	return e, nil
}

// Close stops the shard goroutines. Safe to call more than once; the
// engine must not be stepped after Close. Called automatically by a
// finalizer when the engine is collected.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		for _, w := range e.shards {
			close(w.cmds)
		}
	})
}

// Mesh returns the base mesh.
func (e *Engine) Mesh() *mesh.Mesh { return e.mesh }

// SetInjector installs a continuous traffic source, with the same contract
// as sim.Engine.SetInjector: injection happens at the beginning of every
// step before routing, and livelock detection is disabled (the
// configuration is no longer closed). Because the injection RNG is seeded
// exactly like the single engine's, a run with the same seed, injector and
// policy is bit-identical to the single engine's.
func (e *Engine) SetInjector(inj sim.Injector) {
	e.injector = inj
	e.livelockable = false
}

// InjectionCapacity implements sim.InjectorHost: how many packets can still
// be injected at the node this step without exceeding its out-degree.
func (e *Engine) InjectionCapacity(node mesh.NodeID) int {
	return e.shards[e.pt.Owner(node)].node.Room(node)
}

// NextPacketID implements sim.InjectorHost: a fresh packet ID, unique
// within this engine.
func (e *Engine) NextPacketID() int {
	id := e.nextID
	e.nextID++
	return id
}

var _ sim.InjectorHost = (*Engine)(nil)

// place is the engine's sim.PlaceFunc: the Node of the shard owning the
// packet's source admits it. It runs on the stepping goroutine between
// barriers.
func (e *Engine) place(p *sim.Packet) (held int, ok bool) {
	return e.shards[e.pt.Owner(p.Src)].node.Admit(p)
}

// inject runs the installed injector and admits its output with the single
// engine's rules (sharded runs carry no fault model, so nothing is ever
// refused gracefully — any capacity violation is an injector bug and a hard
// error).
func (e *Engine) inject() error {
	floor := e.nextID
	batch := e.injector.Inject(e.time, e, e.injRng)
	if len(batch) == 0 {
		return nil
	}
	nextID, _, err := sim.AdmitInjected(e.mesh, e.time, batch, floor, e.nextID, e.place)
	if err != nil {
		return err
	}
	e.Admitted(batch, nextID)
	return nil
}

// work is the shard goroutine's loop: one phase per barrier, panic-isolated.
func (w *shardWorker) work() {
	for cmd := range w.cmds {
		w.runPhase(cmd)
		w.wg.Done()
	}
}

func (w *shardWorker) runPhase(cmd phaseCmd) {
	defer func() {
		if r := recover(); r != nil {
			w.err = fmt.Errorf("%w: shard %d, step %d: %v", ErrShardPanic, w.idx, cmd.t, r)
		}
	}()
	switch cmd.phase {
	case phaseRoute:
		w.out, w.err = w.node.Route(cmd.t)
	case phaseApply:
		w.rep, w.arrived, w.err = w.node.ApplyArrived(cmd.t, w.in)
	}
}

// phase broadcasts one phase to every shard and waits for the barrier. The
// WaitGroup gives the stepping goroutine (and, transitively, the next
// phase's goroutines) a happens-before edge over everything the shards
// wrote.
func (e *Engine) phase(ph, t int) error {
	e.wg.Add(len(e.shards))
	for _, w := range e.shards {
		w.err = nil
		w.cmds <- phaseCmd{phase: ph, t: t}
	}
	e.wg.Wait()
	for _, w := range e.shards {
		if w.err != nil {
			return w.err
		}
	}
	return nil
}

// Step advances the simulation by one synchronous step: a route barrier,
// the halo exchange — every egress bucket handed to its receiver in memory
// — an apply barrier, then the ledger's bookkeeping. Injection comes first,
// so the injector sees the queues the previous apply left.
func (e *Engine) Step() error {
	t := e.time
	if e.injector != nil {
		if err := e.inject(); err != nil {
			return err
		}
	}
	if err := e.phase(phaseRoute, t); err != nil {
		return err
	}
	for _, w := range e.shards {
		w.in = w.in[:0]
	}
	for _, w := range e.shards {
		for _, b := range w.out {
			recv := e.shards[b.To]
			recv.in = append(recv.in, b)
		}
	}
	if err := e.phase(phaseApply, t); err != nil {
		return err
	}
	for _, w := range e.shards {
		e.Fold(t, &w.rep)
		for _, p := range w.arrived {
			e.Arrived(p)
		}
	}
	if e.StepHook != nil {
		e.StepHook(e.time, e.live)
	}
	if e.Hashing() && e.live > 0 {
		e.Observe(e.StateHash())
	}
	return nil
}

// StateHash returns the engine's configuration hash, bit-identical to the
// equivalent sim.Engine.StateHash in the same configuration — the package's
// parity contract. Valid between steps.
func (e *Engine) StateHash() uint64 {
	for i, w := range e.shards {
		e.words[i], _ = w.node.HashWords(i, e.words[i][:0])
	}
	return e.pt.FoldHash(e.words)
}

// runnable reports whether the run has work left: packets in flight or an
// injector still producing, no livelock, and step budget remaining.
func (e *Engine) runnable() bool {
	return e.Runnable(e.opts.MaxSteps, e.injector != nil && !e.injector.Exhausted(e.time))
}

// Run steps the engine until every packet arrives, a livelock is detected,
// or the step budget is exhausted, and returns the summary.
func (e *Engine) Run() (*sim.Result, error) { return e.RunContext(context.Background()) }

// RunContext is Run with cancellation and deadline control, with the same
// contract as sim.Engine.RunContext: a deadline (ctx or MaxWallTime) ends
// the run after the step in flight with DeadlineExceeded set and a nil
// error; cancellation returns the partial summary alongside ctx.Err().
func (e *Engine) RunContext(ctx context.Context) (*sim.Result, error) {
	return e.RunCheckpointed(ctx, 0, nil)
}

// RunCheckpointed is RunContext with periodic coordinated checkpoints: when
// every > 0 and save is non-nil, save receives a fresh Checkpoint after
// each `every` completed steps and once more if the run stops early with
// unsaved progress. Checkpoints are captured at step barriers, so they are
// globally consistent; Options.MaxRecoveries additionally uses the most
// recent one (kept in memory, captured on a default cadence if no save
// cadence was given) to roll every shard back and retry when a shard
// panics mid-run.
func (e *Engine) RunCheckpointed(ctx context.Context, every int, save func(*Checkpoint) error) (*sim.Result, error) {
	stop := sim.NewStopFlag(ctx, e.opts.MaxWallTime)
	defer stop.Release()

	recoverable := e.opts.MaxRecoveries > 0
	cadence := every
	if cadence <= 0 && recoverable {
		cadence = defaultRecoveryCadence
	}
	var lastCK *Checkpoint
	if recoverable {
		ck, err := e.Checkpoint()
		if err != nil {
			return nil, err
		}
		lastCK = ck
	}
	// sinceCapture paces in-memory rollback captures; sinceDisk tracks steps
	// not yet committed by save, so the early-stop flush below never writes
	// a checkpoint identical to the last periodic one and never skips one.
	sinceCapture, sinceDisk := 0, 0
	for e.runnable() && !stop.Stopped() {
		if err := e.Step(); err != nil {
			if recoverable && e.recoveries < e.opts.MaxRecoveries && recoverableErr(err) && lastCK != nil {
				e.Recovered()
				if rerr := e.loadCheckpoint(lastCK); rerr != nil {
					return nil, errors.Join(err, fmt.Errorf("shard: rollback failed: %w", rerr))
				}
				// sinceDisk is left alone: the disk state did not move, and
				// replayed steps re-increment it (overcounting at worst
				// causes one redundant flush, never a missed one).
				sinceCapture = 0
				continue
			}
			return nil, err
		}
		sinceCapture++
		sinceDisk++
		if cadence > 0 && sinceCapture >= cadence {
			ck, err := e.Checkpoint()
			if err != nil {
				return nil, err
			}
			if recoverable {
				lastCK = ck
			}
			if save != nil && every > 0 {
				if err := save(ck); err != nil {
					return nil, fmt.Errorf("shard: checkpoint save: %w", err)
				}
				sinceDisk = 0
			}
			sinceCapture = 0
		}
	}

	var runErr error
	if e.runnable() { // stopped early: resolve the cause
		runErr = e.Stopped(ctx)
		if save != nil && sinceDisk > 0 {
			ck, err := e.Checkpoint()
			if err != nil {
				return nil, err
			}
			if err := save(ck); err != nil {
				return nil, fmt.Errorf("shard: checkpoint save: %w", err)
			}
		}
	}
	return e.Result(e.opts.MaxSteps), runErr
}

// recoverableErr reports whether a step error is a crash-class failure —
// a panic that escaped a shard worker or one the router caught inside a
// policy — as opposed to a validation error, which is deterministic and
// would only repeat on replay.
func recoverableErr(err error) bool {
	return errors.Is(err, ErrShardPanic) || errors.Is(err, sim.ErrPolicyPanic)
}
