package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
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

// phase identifiers broadcast to the shard workers at each barrier.
const (
	phaseRoute = iota
	phaseApply
)

type phaseCmd struct {
	phase int
	t     int
}

// shardState is one shard: the owned rectangle (a Subgrid), a NodeRouter
// over the mesh's shared table, the per-node queues of the owned rectangle,
// and the halo mailboxes. It is owned by one worker goroutine during phases
// and by the coordinator between barriers; it deliberately holds no
// reference to the Engine so an abandoned engine can be collected and its
// finalizer can stop the workers.
type shardState struct {
	idx    int
	sub    *mesh.Subgrid
	tab    *mesh.Tables // the mesh's shared table: the router's, and every hop's geometry
	router *sim.NodeRouter
	pt     *partition

	q sim.Queues // by local id, which orders like the global id within the shard

	// Halo mailboxes. internal stages this shard's own moves; egress[b]
	// stages moves leaving toward receiver shard recvShard[b]. recvOf maps
	// a travel direction to its egress bucket (-1: off-mesh or wraps back
	// into this shard). Buckets are keyed by receiver — two directions that
	// reach the same shard (a 2-wide torus ring) share one bucket, so a
	// node emitting through both still delivers its moves in queue order.
	internal  []sim.Move
	edge      []bool // edge[l]: an arc out of local node l leaves the shard
	egress    [][]sim.Move
	recvShard []int
	recvOf    []int
	// ingress points at the egress buckets of the neighbors that send to
	// this shard — read only after the route barrier, which provides the
	// happens-before edge.
	ingress []*[]sim.Move

	// Per-step partials, drained by the coordinator at the apply barrier.
	tally sim.MoveTally
	err   error

	// finalized, when non-nil, collects packets that arrive during merge —
	// set by the distributed Node, which has no Engine packet list to
	// consult afterwards. The in-process Engine leaves it nil.
	finalized *[]*sim.Packet

	cmds chan phaseCmd
	wg   *sync.WaitGroup
}

// Engine steps one routing problem across P*Q shard goroutines with
// lock-step barriers: every shard routes its nodes, then every shard
// applies the moves destined to it (its own plus its neighbors' halo
// transfers), in an order chosen so the resulting configurations are
// bit-identical to a single engine's. See the package comment for the
// determinism argument.
//
// The Engine itself is not safe for concurrent use: one goroutine drives
// Step/Run and may inspect state between steps.
type Engine struct {
	mesh   *mesh.Mesh
	policy sim.Policy
	pt     *partition
	shards []*shardState
	opts   Options

	packets     []*sim.Packet
	time        int
	live        int
	lastArrival int
	nextID      int

	livelock     bool
	livelockable bool
	seen         map[uint64]int

	// Continuous traffic. injSrc is seeded rng.Mix(opts.Seed) — exactly the
	// single engine's injection stream (tie-breaks come from per-(seed, step,
	// node) streams on both), so an injector draws identical values on both
	// engines and the parity contract extends to dynamic traffic.
	injector sim.Injector
	injSrc   rng.SplitMix64
	injRng   *rand.Rand

	totalDeflections int64
	totalHops        int64
	maxNodeLoad      int
	reroutes         int64
	deadlineExceeded bool
	recoveries       int

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
	pt, err := newPartition(m, opts.Grid)
	if err != nil {
		return nil, err
	}
	n := opts.Grid.Count()
	e := &Engine{
		mesh:         m,
		policy:       policy,
		pt:           pt,
		opts:         opts,
		packets:      packets,
		livelockable: opts.DetectLivelock && policy.Deterministic(),
		wg:           new(sync.WaitGroup),
	}
	if e.livelockable {
		e.seen = make(map[uint64]int)
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

	e.shards = make([]*shardState, n)
	for row := 0; row < opts.Grid.Q; row++ {
		for col := 0; col < opts.Grid.P; col++ {
			s, err := newShardState(m, pt, col, row, shardPolicy(), opts.Seed, opts.Validation)
			if err != nil {
				return nil, err
			}
			s.cmds = make(chan phaseCmd, 1)
			s.wg = e.wg
			e.shards[s.idx] = s
		}
	}
	// Wire ingress: every egress bucket of every sender feeds exactly one
	// receiver's ingress list.
	for _, s := range e.shards {
		for b, recv := range s.recvShard {
			r := e.shards[recv]
			r.ingress = append(r.ingress, &s.egress[b])
		}
	}

	if e.nextID, err = sim.AdmitInitial(m, packets, e.place); err != nil {
		return nil, err
	}

	for _, s := range e.shards {
		go s.work()
	}
	// Stop the shard goroutines when the engine is collected, so callers
	// that never Close do not leak them (the workers reference only their
	// shardState, never the Engine, so collection is not prevented).
	runtime.SetFinalizer(e, (*Engine).Close)
	return e, nil
}

// newShardState builds one shard: the owned rectangle, its NodeRouter over
// the table every shard of the mesh shares, its queues, and the egress
// buckets. Shared by the in-process Engine (which adds the phase channel and
// a worker goroutine) and the distributed Node (which steps its shards
// sequentially and leaves cmds/wg nil).
func newShardState(m *mesh.Mesh, pt *partition, col, row int, policy sim.Policy, seed int64, validation sim.ValidationLevel) (*shardState, error) {
	x0, y0, w, h := pt.bounds(col, row)
	sub, err := m.Subgrid(x0, y0, w, h)
	if err != nil {
		return nil, err
	}
	s := &shardState{
		idx:    row*pt.grid.P + col,
		sub:    sub,
		tab:    m.Tables(),
		router: sim.NewNodeRouter(m.Tables(), policy, seed, validation),
		pt:     pt,
		q:      sim.NewQueues(sub.Len(), m.DirCount(), sub.DegreeLocal),
		recvOf: make([]int, m.DirCount()),
	}
	wireEgress(s, pt.grid, m.Wrap(), col, row)
	s.edge = make([]bool, sub.Len())
	for l := range s.edge {
		for d := range s.recvOf {
			to, ok := s.tab.Neighbor(sub.GlobalID(l), mesh.Dir(d))
			s.edge[l] = s.edge[l] || ok && !sub.Owns(to)
		}
	}
	return s, nil
}

// wireEgress computes, for shard (col, row), the receiver shard of each
// travel direction and allocates one egress bucket per distinct receiver.
func wireEgress(s *shardState, g Grid, wrap bool, col, row int) {
	for d := range s.recvOf {
		s.recvOf[d] = -1
		ncol, nrow := col, row
		switch mesh.Dir(d) {
		case mesh.DirPlus(0):
			ncol++
		case mesh.DirMinus(0):
			ncol--
		case mesh.DirPlus(1):
			nrow++
		case mesh.DirMinus(1):
			nrow--
		}
		if ncol < 0 || ncol >= g.P || nrow < 0 || nrow >= g.Q {
			if !wrap {
				continue // the arc leads off the mesh; nothing ever leaves this way
			}
			ncol = (ncol + g.P) % g.P
			nrow = (nrow + g.Q) % g.Q
		}
		recv := nrow*g.P + ncol
		if recv == s.idx {
			continue // wraps back into this shard: such moves are internal
		}
		b := -1
		for i, r := range s.recvShard {
			if r == recv {
				b = i
				break
			}
		}
		if b < 0 {
			b = len(s.recvShard)
			s.recvShard = append(s.recvShard, recv)
			s.egress = append(s.egress, nil)
		}
		s.recvOf[d] = b
	}
}

// Close stops the shard worker goroutines. Safe to call more than once; the
// engine must not be stepped after Close. Called automatically by a
// finalizer when the engine is collected.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		for _, s := range e.shards {
			close(s.cmds)
		}
	})
}

// Accessors, mirroring sim.Engine's.

// Mesh returns the base mesh.
func (e *Engine) Mesh() *mesh.Mesh { return e.mesh }

// Policy returns the routing policy New was given (shards route with their
// own clones of it).
func (e *Engine) Policy() sim.Policy { return e.policy }

// Grid returns the shard decomposition.
func (e *Engine) Grid() Grid { return e.opts.Grid }

// Packets returns all packets of the problem. Callers must not mutate them.
func (e *Engine) Packets() []*sim.Packet { return e.packets }

// Time returns the current step index.
func (e *Engine) Time() int { return e.time }

// Live returns the number of packets still in the network.
func (e *Engine) Live() int { return e.live }

// Done reports whether every packet has arrived.
func (e *Engine) Done() bool { return e.live == 0 }

// Livelocked reports whether a repeated configuration was detected.
func (e *Engine) Livelocked() bool { return e.livelock }

// Recoveries returns how many checkpoint rollbacks Run performed after
// shard panics.
func (e *Engine) Recoveries() int { return e.recoveries }

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
	s := e.shards[e.pt.owner(node)]
	l := s.sub.LocalID(node)
	c := s.sub.DegreeLocal(l) - s.q.Len(l)
	if c < 0 {
		return 0
	}
	return c
}

// NextPacketID implements sim.InjectorHost: a fresh packet ID, unique
// within this engine.
func (e *Engine) NextPacketID() int {
	id := e.nextID
	e.nextID++
	return id
}

var _ sim.InjectorHost = (*Engine)(nil)

// place is the engine's sim.PlaceFunc: it enqueues an admitted packet in
// the shard owning its source unless the node's out-degree is already full.
// Runs coordinator-side between step barriers, so it may touch shard queues
// freely.
func (e *Engine) place(p *sim.Packet) (held int, ok bool) {
	s := e.shards[e.pt.owner(p.Src)]
	held = s.q.Len(s.sub.LocalID(p.Src))
	if !s.load(p) {
		return held, false
	}
	e.live++
	return held + 1, true
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
	e.nextID = nextID
	e.packets = append(e.packets, batch...)
	return nil
}

// Progress returns the engine's current progress counters, shaped exactly
// like sim.Engine.Progress so frontends can report either engine through
// one code path. Sharded runs never drop or absorb packets (no fault
// injection), so those counters are always zero.
func (e *Engine) Progress() sim.Progress {
	return sim.Progress{
		Time:             e.time,
		Live:             e.live,
		Delivered:        len(e.packets) - e.live,
		Total:            len(e.packets),
		TotalHops:        e.totalHops,
		TotalDeflections: e.totalDeflections,
		MaxNodeLoad:      e.maxNodeLoad,
	}
}

// work is the shard worker loop: one phase per barrier, panic-isolated.
func (s *shardState) work() {
	for cmd := range s.cmds {
		s.runPhase(cmd)
		s.wg.Done()
	}
}

func (s *shardState) runPhase(cmd phaseCmd) {
	defer func() {
		if r := recover(); r != nil {
			s.err = fmt.Errorf("%w: shard %d, step %d: %v", ErrShardPanic, s.idx, cmd.t, r)
		}
	}()
	switch cmd.phase {
	case phaseRoute:
		s.err = s.route(cmd.t)
	case phaseApply:
		s.err = s.apply(cmd.t)
	}
}

// phase broadcasts one phase to every shard and waits for the barrier. The
// WaitGroup gives the coordinator (and, transitively, the next phase's
// workers) a happens-before edge over everything the shards wrote.
func (e *Engine) phase(ph, t int) error {
	e.wg.Add(len(e.shards))
	for _, s := range e.shards {
		s.err = nil
		s.cmds <- phaseCmd{phase: ph, t: t}
	}
	e.wg.Wait()
	for _, s := range e.shards {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// route routes every active node of the shard in ascending global-node
// order. The router writes a node's moves straight into the internal list;
// at an edge node the boundary-crossing ones then move to the egress bucket
// of their receiving shard and the rest close up in place. Every staging
// list thus holds its moves in (source node, queue position) order — the
// single engine's application order restricted to that list — which is
// what the receivers' merge relies on.
func (s *shardState) route(t int) error {
	s.internal = s.internal[:0]
	for b := range s.egress {
		s.egress[b] = s.egress[b][:0]
	}
	for _, l := range s.q.Active() {
		pkts := s.q.At(int(l))
		n := len(s.internal)
		s.internal = slices.Grow(s.internal, len(pkts))[:n+len(pkts)]
		if err := s.router.RouteNode(s.sub.GlobalID(int(l)), t, pkts, s.internal[n:]); err != nil {
			return err
		}
		if !s.edge[l] {
			continue // every move stays in the shard
		}
		for i := n; i < len(s.internal); i++ {
			mv := &s.internal[i]
			if s.sub.Owns(mv.To) {
				if n != i {
					s.internal[n] = *mv
				}
				n++
				continue
			}
			b := s.recvOf[mv.Dir]
			if b < 0 {
				return fmt.Errorf("shard: internal error: shard %d step %d move %d->%d via %v has no receiver",
					s.idx, t, mv.From, mv.To, mv.Dir)
			}
			s.egress[b] = append(s.egress[b], *mv)
		}
		s.internal = s.internal[:n]
	}
	return nil
}

// apply empties the shard's queues and applies the moves destined to it —
// its internal list merged with the ingress buckets — in ascending global
// source-node order. Each staging list is sorted by source node (route's
// invariant) and the lists' source sets are disjoint (every node has one
// owner), so merging them by Move.From reproduces exactly the single
// engine's per-destination enqueue order; queue order is routing-relevant
// state, so this is where sharded equals unsharded.
func (s *shardState) apply(t int) error {
	s.q.Clear()
	var lists [maxMergeLists][]sim.Move
	n := 0
	if len(s.internal) > 0 {
		lists[n] = s.internal
		n++
	}
	for _, in := range s.ingress {
		if len(*in) > 0 {
			lists[n] = *in
			n++
		}
	}
	return s.merge(t, lists[:n])
}

// maxMergeLists bounds how many staging lists one shard's apply can merge:
// its internal list plus one per distinct sending neighbor shard. Buckets
// are receiver-keyed on the sender, so each of the at most four neighbor
// shards (fewer when torus wrap aliases them) contributes one list.
const maxMergeLists = 5

// reset empties the shard for (re)loading from a checkpoint part: queues and
// the per-step partials. The coordinator owns the global counters.
func (s *shardState) reset() {
	s.q.Clear()
	s.tally = sim.MoveTally{}
	s.router.DrainCounters()
}

// drain folds the shard's partials of the step that ended at time now into
// rep and clears them.
func (s *shardState) drain(rep *ApplyReport, now int) {
	rep.Hops += s.tally.Hops
	rep.Deflections += s.tally.Deflections
	if s.tally.Arrivals > 0 {
		rep.Arrivals += s.tally.Arrivals
		rep.LastArrival = now
	}
	s.tally = sim.MoveTally{}
	maxLoad, reroutes := s.router.DrainCounters()
	rep.MaxNodeLoad = max(rep.MaxNodeLoad, maxLoad)
	rep.Reroutes += reroutes
}

// merge applies the staging lists in ascending source-node order, a run at
// a time: the list with the smallest head applies every move whose source
// precedes the other lists' heads. Each list is sorted by source node
// (route's invariant) and the lists' source sets are disjoint (every node
// has one owner), so this is exactly the single engine's per-destination
// enqueue order. When s.finalized is non-nil (the distributed Node), arrived
// packets are also collected there. A node receives at most one packet per
// incoming arc, so a queue overflows only when an unvalidated policy sent
// two packets down one arc; that is an error.
func (s *shardState) merge(t int, lists [][]sim.Move) error {
	for n := len(lists); n > 0; {
		best, bound := 0, mesh.NodeID(math.MaxInt32) // bound: the smallest head but best's
		for i := 1; i < n; i++ {
			if head := lists[i][0].From; head < lists[best][0].From {
				best, bound = i, lists[best][0].From
			} else {
				bound = min(bound, head)
			}
		}
		run := lists[best]
		j := 0
		for j < len(run) && run[j].From < bound {
			j++
		}
		s.tally.Apply(s.tab, run[:j], t+1)
		for k := range run[:j] {
			mv := &run[k]
			if mv.ArrivedNow {
				if s.finalized != nil {
					*s.finalized = append(*s.finalized, mv.Packet)
				}
			} else if !s.enqueue(mv.Packet) {
				return fmt.Errorf("%w: step %d: node %d receives more packets than it has arcs", sim.ErrLinkConflict, t, mv.To)
			}
		}
		if lists[best] = run[j:]; j == len(run) {
			n--
			lists[best] = lists[n]
		}
	}
	return nil
}

// enqueue queues p at its node, which the shard owns, and reports whether
// the node had room.
func (s *shardState) enqueue(p *sim.Packet) bool { return s.q.Push(s.sub.LocalID(p.Node), p) }

// load is enqueue for a packet that arrives other than by a move the shard
// applies — admitted, loaded or restored: it Locates the packet first.
func (s *shardState) load(p *sim.Packet) bool {
	p.Locate(s.tab)
	return s.enqueue(p)
}

// Step advances the simulation by one synchronous step: a route barrier, an
// apply barrier (the halo exchange happens between the two — receivers read
// their neighbors' egress buckets), then coordinator bookkeeping.
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
	if err := e.phase(phaseApply, t); err != nil {
		return err
	}
	e.time = t + 1
	var rep ApplyReport
	for _, s := range e.shards {
		s.drain(&rep, e.time)
	}
	e.totalHops += rep.Hops
	e.totalDeflections += rep.Deflections
	e.live -= rep.Arrivals
	e.lastArrival = max(e.lastArrival, rep.LastArrival)
	e.maxNodeLoad = max(e.maxNodeLoad, rep.MaxNodeLoad)
	e.reroutes += rep.Reroutes
	if e.StepHook != nil {
		e.StepHook(e.time, e.live)
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

// stateHash folds every live packet in queue order over the globally-sorted
// active nodes — rows in ascending y, shard columns left to right within a
// row, owned nodes in ascending x — reproducing sim.Engine's stateHash fold
// exactly. Within a shard, the active nodes of one global row form a
// contiguous local-id range, found by binary search in the ascending active
// list.
func (e *Engine) stateHash() uint64 {
	h := sim.ConfigHashSeed
	g := e.pt.grid
	for r := 0; r < g.Q; r++ {
		band := e.shards[r*g.P : (r+1)*g.P]
		_, y0, _, bh := band[0].sub.Bounds()
		for y := y0; y < y0+bh; y++ {
			for _, s := range band {
				_, sy0, w, _ := s.sub.Bounds()
				lo := int32((y - sy0) * w)
				hi := lo + int32(w)
				a := s.q.Active()
				i := sort.Search(len(a), func(i int) bool { return a[i] >= lo })
				for ; i < len(a) && a[i] < hi; i++ {
					for _, p := range s.q.At(int(a[i])) {
						h = sim.ConfigHashPacket(h, p)
					}
				}
			}
		}
	}
	return h
}

// StateHash returns the engine's configuration hash, bit-identical to the
// equivalent sim.Engine.StateHash in the same configuration — the package's
// parity contract. Valid between steps.
func (e *Engine) StateHash() uint64 { return e.stateHash() }

// runnable reports whether the run has work left: packets in flight or an
// injector still producing, no livelock, and step budget remaining.
func (e *Engine) runnable() bool {
	return (e.live > 0 || (e.injector != nil && !e.injector.Exhausted(e.time))) &&
		!e.livelock && e.time < e.opts.MaxSteps
}

// Run steps the engine until every packet arrives, a livelock is detected,
// or the step budget is exhausted, and returns the summary. The Result type
// is sim's: a sharded run summarizes identically to a single-shard one.
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
				e.recoveries++
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
		if runErr = sim.StopCause(ctx); runErr == nil {
			e.deadlineExceeded = true
		}
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
	return e.result(), runErr
}

// recoverableErr reports whether a step error is a crash-class failure —
// a panic that escaped a shard worker or one the router caught inside a
// policy — as opposed to a validation error, which is deterministic and
// would only repeat on replay.
func recoverableErr(err error) bool {
	return errors.Is(err, ErrShardPanic) || errors.Is(err, sim.ErrPolicyPanic)
}

func (e *Engine) result() *sim.Result {
	return &sim.Result{
		Steps:            e.lastArrival,
		Delivered:        len(e.packets) - e.live,
		Total:            len(e.packets),
		Livelocked:       e.livelock,
		HitMaxSteps:      e.live > 0 && !e.livelock && !e.deadlineExceeded && e.time >= e.opts.MaxSteps,
		TotalDeflections: e.totalDeflections,
		TotalHops:        e.totalHops,
		MaxNodeLoad:      e.maxNodeLoad,
		Reroutes:         e.reroutes,
		DeadlineExceeded: e.deadlineExceeded,
	}
}
