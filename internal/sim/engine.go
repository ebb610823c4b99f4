// Package sim implements the synchronous hot-potato routing model of the
// paper (Section 2): packets originate at time 0, every node forwards every
// packet it holds on a distinct outgoing arc in every step (no buffering),
// and at most one packet traverses each directed arc per step.
//
// The engine is policy-agnostic: a Policy supplies the uniform local
// decision rule, and the engine enforces (optionally, per validation level)
// the model constraints, the greediness condition of Definition 6 and the
// restricted-preference condition of Definition 18. It also detects
// livelock for deterministic policies by configuration hashing.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hotpotato/internal/mesh"
	"hotpotato/internal/rng"
)

// ValidationLevel selects how strictly the engine checks policy output.
type ValidationLevel int

const (
	// ValidateOff performs no per-step checking (fastest).
	ValidateOff ValidationLevel = iota
	// ValidateBasic checks model legality every step: every packet assigned a
	// distinct, existing outgoing arc.
	ValidateBasic
	// ValidateGreedy additionally checks Definition 6: a deflected packet
	// must have every good arc used by an advancing packet.
	ValidateGreedy
	// ValidateRestricted additionally checks Definition 18: a restricted
	// packet is never deflected by a non-restricted packet.
	ValidateRestricted
)

// Sentinel errors for validation failures. Step/Run wrap them with context.
var (
	// ErrUnassigned is returned when a policy leaves a packet without an
	// outgoing arc (violating the hot-potato constraint).
	ErrUnassigned = errors.New("sim: packet not assigned an outgoing arc")
	// ErrOffMesh is returned when a policy routes a packet off the mesh.
	ErrOffMesh = errors.New("sim: packet routed off the mesh")
	// ErrLinkConflict is returned when two packets are assigned the same
	// outgoing arc.
	ErrLinkConflict = errors.New("sim: two packets assigned the same arc")
	// ErrNotGreedy is returned when a deflection violates Definition 6.
	ErrNotGreedy = errors.New("sim: deflection violates greediness (Definition 6)")
	// ErrNotRestrictedPreferring is returned when a non-restricted packet
	// deflects a restricted one, violating Definition 18.
	ErrNotRestrictedPreferring = errors.New("sim: non-restricted packet deflected a restricted one (Definition 18)")
	// ErrBadInjection is returned by New for ill-formed initial
	// configurations.
	ErrBadInjection = errors.New("sim: invalid initial configuration")
	// ErrPolicyPanic is returned by Step/Run when a policy's Route panics.
	// The panic is recovered (also inside shard goroutines) and surfaced
	// as an error so a buggy policy cannot crash a sweep.
	ErrPolicyPanic = errors.New("sim: policy panicked")
)

// DefaultMaxSteps is the step budget used when Options.MaxSteps is zero.
const DefaultMaxSteps = 1 << 20

// InjectorHost is the engine surface an Injector sees: the geometry, the
// per-node injection room and the fresh-ID source. Both the single engine
// (*Engine) and the sharded engine (shard.Engine) implement it, so one
// injector drives either — and because both seed their injection RNG the
// same way, an injector produces bit-identical traffic on both.
type InjectorHost interface {
	// Mesh returns the intact base mesh (geometric ground truth).
	Mesh() *mesh.Mesh
	// InjectionCapacity returns how many packets can still be injected at
	// the node this step without exceeding its out-degree.
	InjectionCapacity(node mesh.NodeID) int
	// NextPacketID returns a fresh packet ID, unique within the engine.
	NextPacketID() int
}

// Injector supplies packets to inject at the beginning of each step,
// turning the batch engine into a continuous-traffic simulator (the
// steady-state regime of the deflection-network studies the paper cites:
// [GG], [Ma], [ZA]). Implementations must respect the model's injection
// constraint: after injection, no node may hold more packets than its
// out-degree — use InjectorHost.InjectionCapacity to learn the per-node
// room. Returned packets must sit at their sources with fresh IDs at or
// above the engine's ID watermark — every ID ever accepted stays below the
// watermark, so any monotonically increasing scheme works and NextPacketID
// always satisfies the contract. IDs below the watermark are rejected as
// reused.
type Injector interface {
	// Inject returns the packets entering the network at step t. The rng
	// is the engine's deterministic injection stream (routing tie-breaks
	// never draw from it).
	Inject(t int, host InjectorHost, rng *rand.Rand) []*Packet
	// Exhausted reports that the source will never inject again (e.g. its
	// generation window closed and its backlog drained); Run then stops as
	// soon as the network empties. A source that never exhausts runs to
	// the step budget.
	Exhausted(t int) bool
}

// Options configures an Engine.
type Options struct {
	// MaxSteps bounds the simulation length; 0 means DefaultMaxSteps.
	MaxSteps int
	// Seed seeds the run's randomness. Tie-breaks of randomized policies
	// draw from a stream derived per (seed, step, node) — NodeSeed — on
	// every engine; the injector and the fault model each get their own
	// stream derived from the same seed.
	Seed int64
	// Validation selects per-step checking of policy output.
	Validation ValidationLevel
	// DetectLivelock enables configuration hashing to detect repeated
	// states. It only takes effect for deterministic policies (a repeated
	// state under a randomized policy does not imply a loop).
	DetectLivelock bool
	// MaxWallTime bounds the wall-clock duration of Run; 0 means no limit.
	// It is unified with any RunContext deadline into a single stop flag
	// checked between steps: the step in flight finishes and the cutoff is
	// reported in Result.DeadlineExceeded. A wall-clock bound is inherently
	// not reproducible across machines; use MaxSteps for deterministic
	// budgets and this as the safety valve around them.
	MaxWallTime time.Duration
}

// ClonablePolicy is implemented by policies whose per-engine scratch state
// can be duplicated, so every shard of a sharded run (internal/shard) routes
// with its own instance.
type ClonablePolicy interface {
	Policy
	// Clone returns a policy with identical behavior and fresh scratch.
	Clone() Policy
}

// Result summarizes a completed Run.
type Result struct {
	// Steps is the routing time: the step at which the last packet reached
	// its destination (0 if every packet originated at its destination).
	Steps int
	// Delivered is the number of packets that reached their destinations.
	Delivered int
	// Total is the number of packets in the problem.
	Total int
	// Livelocked reports that a configuration repeated under a
	// deterministic policy, so the run would loop forever.
	Livelocked bool
	// HitMaxSteps reports that the step budget was exhausted first.
	HitMaxSteps bool
	// TotalDeflections counts packet-steps moving away from destinations.
	TotalDeflections int64
	// TotalHops counts all packet movements.
	TotalHops int64
	// MaxNodeLoad is the largest number of packets observed in one node at
	// the beginning of a step.
	MaxNodeLoad int

	// Dropped is the number of packets removed undelivered by fault
	// degradation (all causes; always Delivered + Dropped + Absorbed +
	// live-at-exit == Total).
	Dropped int
	// Absorbed is the number of crash victims terminated at their crashing
	// node under FateAbsorb (counted separately from drops).
	Absorbed int
	// DroppedCrash counts drops of packets caught in a crashing node
	// (FateDrop only; under FateAbsorb they count in Absorbed instead).
	DroppedCrash int
	// DroppedUnreachable counts drops of packets whose destination was down
	// when the failure set changed.
	DroppedUnreachable int
	// DroppedStranded counts drops of packets shed because a node's
	// surviving out-degree fell below its load.
	DroppedStranded int
	// DroppedInject counts injected packets refused gracefully because the
	// failure set left no room for them.
	DroppedInject int
	// LinkFailures and NodeFailures are the cumulative fault transitions
	// applied over the run (0 without a fault model).
	LinkFailures int
	NodeFailures int
	// Reroutes counts packet-steps in which a packet had no surviving good
	// arc (all its geometrically good arcs were down), so every available
	// move was a forced, fault-induced deflection.
	Reroutes int64
	// DeadlineExceeded reports that Options.MaxWallTime or the RunContext
	// deadline (whichever fired first) cut the run short.
	DeadlineExceeded bool
}

// Engine runs one routing problem under one policy.
type Engine struct {
	mesh   *mesh.Mesh
	topo   *mesh.Tables // routing table: the mesh's, or the overlay's masked copy under faults
	router *NodeRouter  // routes every node against topo; rebuilt by SetFaults
	policy Policy
	// packets is every packet of the problem; the live ones are also in
	// byNode. Finalized IDs need no record of their own: every ID ever
	// accepted is below the nextID watermark.
	packets []*Packet
	opts    Options
	// rng is the injection stream (routing tie-breaks come from the
	// router's per-node streams), backed by an inline SplitMix64 source:
	// seeding is one store instead of the ~5 KB state expansion of the
	// default Go source, which dominated engine construction in sweeps that
	// build thousands of engines.
	rng *rand.Rand
	src rng.SplitMix64

	time        int
	live        int
	lastArrival int
	byNode      [][]*Packet
	active      []mesh.NodeID
	activeMark  []bool
	observers   []Observer

	// conflictObs is the opt-in conflict tap (SetConflictObserver); confRec
	// is its engine-owned scratch record, reused across emissions so the
	// traced hot path stays allocation-free once warm. Nil observer = one
	// predicted branch per step, nothing else.
	conflictObs ConflictObserver
	confRec     ConflictRecord

	livelock     bool
	livelockable bool
	seen         map[uint64]int
	injector     Injector
	nextID       int

	// Fault state (nil/zero without SetFaults).
	faults       FaultModel
	overlay      *mesh.Overlay
	faultRng     *rand.Rand
	faultVersion uint64
	fate         PacketFate

	totalDeflections int64
	totalHops        int64
	maxNodeLoad      int
	reroutes         int64

	dropped         int
	absorbed        int
	dropCrash       int
	dropUnreachable int
	dropStranded    int
	dropInject      int

	deadlineExceeded bool

	// moves is the per-step move buffer, written in place in active-node
	// order and reused across steps.
	moves []Move
}

// New validates the initial configuration and returns an engine positioned
// at time 0. Packets whose source equals their destination are absorbed
// immediately (ArrivedAt = 0). The engine takes ownership of the packets.
//
// The initial configuration must satisfy the paper's many-to-many model: no
// node is the origin of more packets than its out-degree.
func New(m *mesh.Mesh, policy Policy, packets []*Packet, opts Options) (*Engine, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil mesh", ErrBadInjection)
	}
	if policy == nil {
		return nil, fmt.Errorf("%w: nil policy", ErrBadInjection)
	}
	if opts.MaxSteps <= 0 {
		opts.MaxSteps = DefaultMaxSteps
	}
	tab := m.Tables()
	e := &Engine{
		mesh:         m,
		topo:         tab,
		router:       NewNodeRouter(tab, policy, opts.Seed, opts.Validation),
		policy:       policy,
		packets:      packets,
		opts:         opts,
		byNode:       make([][]*Packet, m.Size()),
		activeMark:   make([]bool, m.Size()),
		livelockable: opts.DetectLivelock && policy.Deterministic(),
	}
	e.src.Seed(rng.Mix(opts.Seed))
	e.rng = rand.New(&e.src)
	// One contiguous backing array for all per-node queues: a node never
	// holds more packets than its out-degree, so slicing each queue to its
	// degree's capacity makes enqueue allocation-free for the whole run.
	queueBacking := make([]*Packet, m.ArcCount())
	off := 0
	for id := range e.byNode {
		deg := tab.Degree(mesh.NodeID(id))
		e.byNode[id] = queueBacking[off : off : off+deg]
		off += deg
	}
	if e.livelockable {
		e.seen = make(map[uint64]int)
	}
	var err error
	if e.nextID, err = AdmitInitial(m, packets, e.place); err != nil {
		return nil, err
	}
	e.moves = make([]Move, 0, e.live)
	e.sortActive()
	return e, nil
}

// Close is a no-op, kept so callers can treat every engine alike: the single
// engine owns no goroutines (shard.Engine's Close stops its shard workers).
func (e *Engine) Close() {}

// place is the engine's PlaceFunc: it enqueues an admitted packet at its
// source unless the current failure set leaves no room there — an endpoint
// is down, or the surviving out-degree is already full.
func (e *Engine) place(p *Packet) (held int, ok bool) {
	if e.overlay != nil && (e.overlay.NodeDown(p.Src) || e.overlay.NodeDown(p.Dst)) {
		return 0, false
	}
	held = len(e.byNode[p.Src])
	if held >= e.topo.Degree(p.Src) {
		return held, false
	}
	e.enqueue(p)
	e.live++
	return held + 1, true
}

func (e *Engine) enqueue(p *Packet) {
	if len(e.byNode[p.Node]) == 0 && !e.activeMark[p.Node] {
		e.activeMark[p.Node] = true
		e.active = append(e.active, p.Node)
	}
	e.byNode[p.Node] = append(e.byNode[p.Node], p)
}

// sortActive restores the sorted order of the active list after a step's
// move application (or after injection) perturbed it.
func (e *Engine) sortActive() { e.active = SortActive(e.active, e.activeMark) }

// AddObserver registers an observer to run after every step.
func (e *Engine) AddObserver(o Observer) { e.observers = append(e.observers, o) }

// SetInjector installs a continuous traffic source. Injection happens at
// the beginning of every step, before routing. Installing an injector
// disables livelock detection (the configuration is no longer closed).
func (e *Engine) SetInjector(inj Injector) {
	e.injector = inj
	e.livelockable = false
}

// InjectionCapacity returns how many packets can still be injected at the
// node this step without exceeding its out-degree — the surviving
// out-degree when a fault model is installed, so injectors automatically
// respect reduced capacity. The value reflects the engine state when
// called: an Injector returning several packets for the same node in one
// Inject call must count its own earlier picks against the capacity
// itself.
func (e *Engine) InjectionCapacity(node mesh.NodeID) int {
	c := e.topo.Degree(node) - len(e.byNode[node])
	if c < 0 {
		return 0
	}
	return c
}

// NextPacketID returns a fresh packet ID, unique within this engine, for
// injectors to use.
func (e *Engine) NextPacketID() int {
	id := e.nextID
	e.nextID++
	return id
}

// inject runs the installed injector and admits its output (AdmitInjected):
// injector bugs are hard errors; packets the current failure set leaves no
// room for are refused gracefully with cause DropInject.
func (e *Engine) inject() error {
	// Freshness floor: the watermark before the injector ran. IDs the
	// injector drew from NextPacketID during this call sit between floor and
	// the advanced e.nextID and are fresh by construction.
	floor := e.nextID
	batch := e.injector.Inject(e.time, e, e.rng)
	if len(batch) == 0 {
		return nil
	}
	nextID, refused, err := AdmitInjected(e.mesh, e.time, batch, floor, e.nextID, e.place)
	if err != nil {
		return err
	}
	e.nextID = nextID
	e.packets = append(e.packets, batch...)
	e.dropped += refused
	e.dropInject += refused
	e.sortActive()
	return nil
}

// Mesh returns the intact base mesh. Under an installed fault model the
// engine routes against Topology() instead; Mesh stays the geometric
// ground truth (sizes, distances, coordinates).
func (e *Engine) Mesh() *mesh.Mesh { return e.mesh }

// Policy returns the routing policy.
func (e *Engine) Policy() Policy { return e.policy }

// Packets returns all packets of the problem (live and arrived). Callers
// must not mutate them.
func (e *Engine) Packets() []*Packet { return e.packets }

// PacketsAt returns the packets currently at the given node. The slice is
// engine-owned and valid until the next Step.
func (e *Engine) PacketsAt(node mesh.NodeID) []*Packet { return e.byNode[node] }

// Time returns the current step index.
func (e *Engine) Time() int { return e.time }

// Live returns the number of packets still in the network.
func (e *Engine) Live() int { return e.live }

// Done reports whether every packet has arrived.
func (e *Engine) Done() bool { return e.live == 0 }

// Livelocked reports whether a repeated configuration was detected.
func (e *Engine) Livelocked() bool { return e.livelock }

// Step advances the simulation by one synchronous step. It returns an error
// only on validation failure; termination conditions (done, livelock, step
// budget) are reported by Run.
func (e *Engine) Step() error {
	t := e.time
	// Fault transitions happen first (own RNG stream), so injection and
	// routing always see a settled failure set.
	if e.faults != nil {
		e.applyFaults()
	}
	if e.injector != nil {
		if err := e.inject(); err != nil {
			return err
		}
	}
	// Route every active node. Active nodes are kept sorted so that the
	// move buffer is grouped by source node in ascending order. Every live
	// packet sits in exactly one active node's queue, so the step produces
	// exactly e.live moves; the buffer is reused across steps and only
	// reallocated when injection outgrows it.
	if cap(e.moves) < e.live {
		e.moves = make([]Move, e.live)
	}
	e.moves = e.moves[:e.live]
	base := 0
	for _, node := range e.active {
		pkts := e.byNode[node]
		if err := e.router.RouteNode(node, t, pkts, e.moves[base:base+len(pkts)]); err != nil {
			return err
		}
		base += len(pkts)
	}
	maxLoad, reroutes := e.router.DrainCounters()
	e.maxNodeLoad = max(e.maxNodeLoad, maxLoad)
	e.reroutes += reroutes

	// Apply all moves simultaneously.
	for _, node := range e.active {
		e.byNode[node] = e.byNode[node][:0]
		e.activeMark[node] = false
	}
	e.active = e.active[:0]
	e.time = t + 1
	var tally MoveTally
	for i := range e.moves {
		if mv := &e.moves[i]; tally.Apply(mv, e.time) {
			e.enqueue(mv.Packet)
		}
	}
	e.totalHops += tally.Hops
	e.totalDeflections += tally.Deflections
	if tally.Arrivals > 0 {
		e.live -= tally.Arrivals
		e.lastArrival = e.time
	}
	e.sortActive()

	if e.conflictObs != nil {
		e.emitConflicts(t)
	}

	if len(e.observers) > 0 {
		rec := StepRecord{Time: t, Moves: e.moves}
		for _, o := range e.observers {
			o.OnStep(&rec)
		}
	}

	if e.livelockable && e.live > 0 {
		h := e.stateHash()
		if _, dup := e.seen[h]; dup {
			e.livelock = true
		} else {
			e.seen[h] = e.time
		}
	}
	return nil
}

// mix64 folds v into the running hash h with the SplitMix64 finalizer, a
// full-avalanche bijection: one multiply-xorshift round per word instead of
// the old byte-at-a-time FNV writes.
func mix64(h, v uint64) uint64 {
	h ^= v
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// stateHash digests the full routing-relevant configuration: for each live
// packet its identity, position, entry arc and history flags, visited in
// queue order over the (sorted) active nodes. Two equal configurations under
// a deterministic policy evolve identically, so a repeated hash marks a
// livelock (up to the negligible 64-bit collision probability, documented in
// the Options). Only the live packets are walked — finalized ones can never
// differ between two occurrences of the same live configuration, because a
// deterministic run never resurrects them — so the per-step cost tracks the
// packets in flight, not the total ever injected.
func (e *Engine) stateHash() uint64 {
	h := ConfigHashSeed
	for _, node := range e.active {
		for _, p := range e.byNode[node] {
			h = ConfigHashPacket(h, p)
		}
	}
	return h
}

// runnable reports whether the run has work left: packets in flight or an
// injector still producing, no livelock, and step budget remaining.
func (e *Engine) runnable() bool {
	return (e.live > 0 || (e.injector != nil && !e.injector.Exhausted(e.time))) &&
		!e.livelock && e.time < e.opts.MaxSteps
}

// Run steps the engine until every packet arrives (or is removed by fault
// degradation), a livelock is detected, the step budget is exhausted, or
// the wall-clock deadline passes, and returns the summary.
func (e *Engine) Run() (*Result, error) { return e.RunContext(context.Background()) }

// RunContext is Run with cancellation and deadline control. The ctx
// deadline and Options.MaxWallTime are unified into one stop signal
// (StopFlag, whichever fires first): either way the step in flight finishes
// and the summary reports DeadlineExceeded with a nil error.
//
// Cancellation (ctx.Done with context.Canceled) also finishes the step in
// flight, but returns the partial summary alongside ctx.Err() so callers
// can tell an interrupted run from an exhausted one. The engine stays
// valid either way: callers may Snapshot it or resume stepping.
func (e *Engine) RunContext(ctx context.Context) (*Result, error) {
	return e.RunCheckpointed(ctx, 0, nil)
}

// RunCheckpointed is RunContext with periodic state capture: when every > 0
// and save is non-nil, save receives a fresh Snapshot after each `every`
// completed steps, and — regardless of `every` — once more when the run is
// stopped early by cancellation or deadline with unsaved progress, so a
// resumed run loses nothing. A save error aborts the run.
func (e *Engine) RunCheckpointed(ctx context.Context, every int, save func(*Snapshot) error) (*Result, error) {
	stop := NewStopFlag(ctx, e.opts.MaxWallTime)
	defer stop.Release()

	sinceSave := 0
	for e.runnable() && !stop.Stopped() {
		if err := e.Step(); err != nil {
			return nil, err
		}
		sinceSave++
		if every > 0 && save != nil && sinceSave >= every {
			if err := e.saveSnapshot(save); err != nil {
				return nil, err
			}
			sinceSave = 0
		}
	}

	var runErr error
	if e.runnable() { // stopped early: resolve the cause
		if runErr = StopCause(ctx); runErr == nil {
			e.deadlineExceeded = true
		}
		if save != nil && sinceSave > 0 {
			if err := e.saveSnapshot(save); err != nil {
				return nil, err
			}
		}
	}
	return e.result(), runErr
}

// saveSnapshot captures the engine state and hands it to the callback.
func (e *Engine) saveSnapshot(save func(*Snapshot) error) error {
	s, err := e.Snapshot()
	if err != nil {
		return err
	}
	if err := save(s); err != nil {
		return fmt.Errorf("sim: checkpoint save: %w", err)
	}
	return nil
}

func (e *Engine) result() *Result {
	r := &Result{
		Steps:            e.lastArrival,
		Delivered:        len(e.packets) - e.live - e.dropped - e.absorbed,
		Total:            len(e.packets),
		Livelocked:       e.livelock,
		HitMaxSteps:      e.live > 0 && !e.livelock && !e.deadlineExceeded && e.time >= e.opts.MaxSteps,
		TotalDeflections: e.totalDeflections,
		TotalHops:        e.totalHops,
		MaxNodeLoad:      e.maxNodeLoad,

		Dropped:            e.dropped,
		Absorbed:           e.absorbed,
		DroppedCrash:       e.dropCrash,
		DroppedUnreachable: e.dropUnreachable,
		DroppedStranded:    e.dropStranded,
		DroppedInject:      e.dropInject,
		Reroutes:           e.reroutes,
		DeadlineExceeded:   e.deadlineExceeded,
	}
	if e.overlay != nil {
		r.LinkFailures = e.overlay.LinkFailures()
		r.NodeFailures = e.overlay.NodeFailures()
	}
	return r
}
