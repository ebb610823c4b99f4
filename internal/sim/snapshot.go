package sim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"hotpotato/internal/mesh"
)

// SnapshotVersion is the schema version of the Snapshot structure. Codecs
// (internal/checkpoint) persist it and refuse snapshots of any other schema;
// bump it whenever a field is added, removed or reinterpreted. v2 dropped
// Workers: v1 engines could draw tie-breaks from a serial stream that no
// longer exists, so their snapshots cannot be continued faithfully.
const SnapshotVersion = 2

// ErrBadSnapshot is returned by Restore when a snapshot cannot be applied
// to the target engine: schema mismatch, configuration mismatch (different
// mesh, policy, seed, fault or injector setup), or internal inconsistency.
var ErrBadSnapshot = errors.New("sim: snapshot does not match the engine")

// PacketState is the serializable state of one Packet (every field the
// engine or a policy can observe).
type PacketState struct {
	ID             int         `json:"id"`
	Src            mesh.NodeID `json:"src"`
	Dst            mesh.NodeID `json:"dst"`
	Node           mesh.NodeID `json:"node"`
	EnteredVia     mesh.Dir    `json:"entered_via"`
	InjectedAt     int         `json:"injected_at"`
	Class          int         `json:"class,omitempty"`
	ArrivedAt      int         `json:"arrived_at"`
	DroppedAt      int         `json:"dropped_at"`
	Cause          DropCause   `json:"cause,omitempty"`
	Hops           int         `json:"hops"`
	Deflections    int         `json:"deflections"`
	AdvancedPrev   bool        `json:"advanced_prev,omitempty"`
	RestrictedPrev bool        `json:"restricted_prev,omitempty"`
	GoodPrev       int         `json:"good_prev,omitempty"`
}

// QueueState records the packets held by one node, in queue order. Queue
// order is routing-relevant (it is the order policies see packets in), so
// it is captured explicitly instead of being re-derived.
type QueueState struct {
	Node mesh.NodeID `json:"node"`
	// Packets indexes into Snapshot.Packets.
	Packets []int `json:"packets"`
}

// SeenState is one entry of the livelock detector's configuration-hash
// memory.
type SeenState struct {
	Hash uint64 `json:"hash"`
	Time int    `json:"time"`
}

// Snapshot is the complete between-steps state of an Engine, sufficient to
// continue the run bit-identically in a fresh engine built with the same
// mesh, policy and options (see Restore for the exact contract). The fault
// overlay is not serialized arc-by-arc: the snapshot records the fault
// clock (Time) and a digest, and Restore replays the deterministic fault
// stream to reconstruct the overlay, the model's internal cursor and the
// fault RNG in one pass.
type Snapshot struct {
	Version int `json:"version"`

	// Configuration guard: Restore refuses a target engine that differs.
	MeshDim    int             `json:"mesh_dim"`
	MeshSide   int             `json:"mesh_side"`
	MeshWrap   bool            `json:"mesh_wrap"`
	PolicyName string          `json:"policy"`
	Seed       int64           `json:"seed"`
	MaxSteps   int             `json:"max_steps"`
	Validation ValidationLevel `json:"validation"`
	DetectLive bool            `json:"detect_livelock"`

	// Clock and identity watermarks.
	Time        int    `json:"time"`
	LastArrival int    `json:"last_arrival"`
	NextID      int    `json:"next_id"`
	SerialRNG   uint64 `json:"serial_rng"`

	// Livelock detector state.
	Livelocked bool        `json:"livelocked,omitempty"`
	Seen       []SeenState `json:"seen,omitempty"`

	// Cumulative accounting.
	TotalDeflections   int64 `json:"total_deflections"`
	TotalHops          int64 `json:"total_hops"`
	MaxNodeLoad        int   `json:"max_node_load"`
	Reroutes           int64 `json:"reroutes,omitempty"`
	Dropped            int   `json:"dropped,omitempty"`
	Absorbed           int   `json:"absorbed,omitempty"`
	DroppedCrash       int   `json:"dropped_crash,omitempty"`
	DroppedUnreachable int   `json:"dropped_unreachable,omitempty"`
	DroppedStranded    int   `json:"dropped_stranded,omitempty"`
	DroppedInject      int   `json:"dropped_inject,omitempty"`

	// Packets in engine order, and the live queues in active-node order.
	Packets []PacketState `json:"packets"`
	Queues  []QueueState  `json:"queues"`

	// Injector state: present iff an injector was installed. The engine RNG
	// covers stateless injectors exactly; injectors with internal state
	// (source backlogs) participate via the CheckpointableInjector interface
	// and their opaque bytes ride along here.
	HasInjector   bool   `json:"has_injector,omitempty"`
	InjectorState []byte `json:"injector_state,omitempty"`

	// Fault-overlay clock: Restore replays the model's Advance stream for
	// steps [0, Time) and verifies the digest, so the overlay itself needs
	// no serialization.
	HasFaults     bool       `json:"has_faults,omitempty"`
	Fate          PacketFate `json:"fate,omitempty"`
	OverlayDigest uint64     `json:"overlay_digest,omitempty"`
	LinkFailures  int        `json:"link_failures,omitempty"`
	NodeFailures  int        `json:"node_failures,omitempty"`
}

// CheckpointableInjector is implemented by injectors that carry internal
// state beyond the engine RNG (e.g. per-node source backlogs). Snapshot
// captures the bytes and Restore hands them back, so checkpoint/resume is
// exact for such sources too. Injectors without internal state need not
// implement it.
type CheckpointableInjector interface {
	Injector
	// SnapshotState serializes the injector's internal state.
	SnapshotState() ([]byte, error)
	// RestoreState reinstates state captured by SnapshotState.
	RestoreState(data []byte) error
}

// StateHash returns the engine's configuration hash: a digest of every live
// packet's identity, position, entry arc and history flags in queue order.
// It is the livelock detector's hash, exposed so callers can assert that
// two engines are in bit-identical routing states (checkpoint parity
// tests, resume verification). Valid between steps.
func (e *Engine) StateHash() uint64 { return e.stateHash() }

// Snapshot captures the complete between-steps state of the engine. It must
// not be called while a Step is in flight; the engine is unchanged. The
// returned snapshot shares no memory with the engine. Seen is in ascending
// Time order, so two snapshots of one state are equal field for field and
// encode to the same bytes — the bytes Engine.AppendBinary writes.
func (e *Engine) Snapshot() (*Snapshot, error) {
	s := &Snapshot{}
	if err := e.captureScalars(s); err != nil {
		return nil, err
	}
	s.Seen = slices.Clone(e.seenLog)
	s.Packets = make([]PacketState, len(e.packets))
	for i, p := range e.packets {
		s.Packets[i].capture(p)
	}
	// The queues' index lists are cut from one array: between steps every
	// live packet is queued exactly once.
	active := e.q.Active()
	s.Queues = make([]QueueState, len(active))
	idx := make([]int, 0, e.live)
	for i, node := range active {
		start := len(idx)
		for _, p := range e.q.At(int(node)) {
			idx = append(idx, int(p.pos))
		}
		s.Queues[i] = QueueState{Node: mesh.NodeID(node), Packets: idx[start:len(idx):len(idx)]}
	}
	return s, nil
}

// captureScalars fills every Snapshot field but Seen, Packets and Queues —
// the part both Snapshot and AppendBinary read the same way.
func (e *Engine) captureScalars(s *Snapshot) error {
	*s = Snapshot{
		Version:    SnapshotVersion,
		MeshDim:    e.mesh.Dim(),
		MeshSide:   e.mesh.Side(),
		MeshWrap:   e.mesh.Wrap(),
		PolicyName: e.policy.Name(),
		Seed:       e.opts.Seed,
		MaxSteps:   e.opts.MaxSteps,
		Validation: e.opts.Validation,
		DetectLive: e.opts.DetectLivelock,

		Time:        e.time,
		LastArrival: e.lastArrival,
		NextID:      e.nextID,
		SerialRNG:   e.src.State(),

		Livelocked: e.livelock,

		TotalDeflections:   e.totalDeflections,
		TotalHops:          e.totalHops,
		MaxNodeLoad:        e.maxNodeLoad,
		Reroutes:           e.reroutes,
		Dropped:            e.dropped,
		Absorbed:           e.absorbed,
		DroppedCrash:       e.dropCrash,
		DroppedUnreachable: e.dropUnreachable,
		DroppedStranded:    e.dropStranded,
		DroppedInject:      e.dropInject,
	}

	if e.injector != nil {
		s.HasInjector = true
		if ci, ok := e.injector.(CheckpointableInjector); ok {
			data, err := ci.SnapshotState()
			if err != nil {
				return fmt.Errorf("sim: snapshot injector state: %w", err)
			}
			s.InjectorState = data
		}
	}

	if e.faults != nil {
		s.HasFaults = true
		s.Fate = e.fate
		s.OverlayDigest = overlayDigest(e.overlay)
		s.LinkFailures = e.overlay.LinkFailures()
		s.NodeFailures = e.overlay.NodeFailures()
	}
	return nil
}

// Restore reinstates a snapshot into the engine. The engine must be freshly
// constructed — New with the same mesh geometry, a policy of the same name,
// identical Options (seed above all), zero packets and no steps taken —
// and any fault model or injector must already be installed, exactly as on
// the snapshotted engine (a *fresh* instance of the same deterministic
// fault model: Restore replays its Advance stream to rebuild the overlay
// and verifies the result against the snapshot digest). After Restore the
// run continues bit-identically to the engine the snapshot was taken from.
// RestoreBinary does the same from the snapshot's bytes.
func (e *Engine) Restore(s *Snapshot) error {
	// The packets are one slab, so the allocations do not grow with their
	// count.
	slab := make([]Packet, len(s.Packets))
	for i := range s.Packets {
		if err := s.Packets[i].checkGoodPrev(); err != nil {
			return err
		}
		s.Packets[i].Fill(&slab[i])
	}
	return e.restore(s, slab, s.Queues)
}

// checkGoodPrev refuses a packet whose good-direction count no node can
// have: a Packet keeps the count in a byte, and a restored engine must
// capture exactly the state it was handed.
func (ps *PacketState) checkGoodPrev() error {
	if ps.GoodPrev < 0 || ps.GoodPrev > maxDeg {
		return fmt.Errorf("%w: packet %d good-direction count %d outside [0, %d]", ErrBadSnapshot, ps.ID, ps.GoodPrev, maxDeg)
	}
	return nil
}

// restore is Restore and RestoreBinary once the packets are in their slab:
// s supplies every other field (its Packets and Queues are not read), and
// queues index into slab. The engine keeps slab, and nothing of s or
// queues.
func (e *Engine) restore(s *Snapshot, slab []Packet, queues []QueueState) error {
	if s.Version != SnapshotVersion {
		return fmt.Errorf("%w: snapshot schema v%d, engine supports v%d", ErrBadSnapshot, s.Version, SnapshotVersion)
	}
	if e.time != 0 || len(e.packets) != 0 || e.live != 0 {
		return fmt.Errorf("%w: target engine is not fresh (time=%d, %d packets)", ErrBadSnapshot, e.time, len(e.packets))
	}
	if e.mesh.Dim() != s.MeshDim || e.mesh.Side() != s.MeshSide || e.mesh.Wrap() != s.MeshWrap {
		return fmt.Errorf("%w: mesh %v vs snapshot (d=%d, n=%d, wrap=%v)",
			ErrBadSnapshot, e.mesh, s.MeshDim, s.MeshSide, s.MeshWrap)
	}
	if e.policy.Name() != s.PolicyName {
		return fmt.Errorf("%w: policy %q vs snapshot %q", ErrBadSnapshot, e.policy.Name(), s.PolicyName)
	}
	if e.opts.Seed != s.Seed {
		return fmt.Errorf("%w: seed %d vs snapshot %d", ErrBadSnapshot, e.opts.Seed, s.Seed)
	}
	if e.opts.MaxSteps != s.MaxSteps || e.opts.Validation != s.Validation || e.opts.DetectLivelock != s.DetectLive {
		return fmt.Errorf("%w: options differ (max_steps %d vs %d, validation %d vs %d, detect_livelock %v vs %v)",
			ErrBadSnapshot, e.opts.MaxSteps, s.MaxSteps, e.opts.Validation, s.Validation,
			e.opts.DetectLivelock, s.DetectLive)
	}
	if (e.faults != nil) != s.HasFaults {
		return fmt.Errorf("%w: fault model installed=%v, snapshot has_faults=%v", ErrBadSnapshot, e.faults != nil, s.HasFaults)
	}
	if s.HasFaults && e.fate != s.Fate {
		return fmt.Errorf("%w: packet fate %v vs snapshot %v", ErrBadSnapshot, e.fate, s.Fate)
	}
	if (e.injector != nil) != s.HasInjector {
		return fmt.Errorf("%w: injector installed=%v, snapshot has_injector=%v", ErrBadSnapshot, e.injector != nil, s.HasInjector)
	}

	// Check the packet population and the queues against it before anything
	// is queued, so a refused snapshot leaves the engine fresh: IDs are
	// unique and below the watermark, and every live packet is queued
	// exactly once, at its own node, within the node's out-degree.
	packets := make([]*Packet, len(slab))
	ids := make([]int, len(slab))
	live := 0
	for i := range slab {
		p := &slab[i]
		if err := e.mesh.CheckID(p.Src); err != nil {
			return fmt.Errorf("%w: packet %d source: %v", ErrBadSnapshot, p.ID, err)
		}
		if err := e.mesh.CheckID(p.Dst); err != nil {
			return fmt.Errorf("%w: packet %d destination: %v", ErrBadSnapshot, p.ID, err)
		}
		if p.ID >= s.NextID {
			return fmt.Errorf("%w: packet id %d at or above watermark %d", ErrBadSnapshot, p.ID, s.NextID)
		}
		p.pos = int32(i)
		packets[i], ids[i] = p, p.ID
		if !p.Arrived() && !p.Dropped() {
			live++
		}
	}
	if id, dup := DuplicateID(ids); dup {
		return fmt.Errorf("%w: packet id %d occurs more than once", ErrBadSnapshot, id)
	}
	queued := make([]bool, len(packets))
	held := make([]uint8, e.mesh.Size())
	enqueued := 0
	for _, q := range queues {
		if err := e.mesh.CheckID(q.Node); err != nil {
			return fmt.Errorf("%w: queue node %d: %v", ErrBadSnapshot, q.Node, err)
		}
		if deg := e.mesh.Degree(q.Node); len(q.Packets) > deg-int(held[q.Node]) {
			return fmt.Errorf("%w: node %d queue exceeds out-degree %d", ErrBadSnapshot, q.Node, deg)
		}
		held[q.Node] += uint8(len(q.Packets))
		for _, pi := range q.Packets {
			if pi < 0 || pi >= len(packets) {
				return fmt.Errorf("%w: queue of node %d references packet index %d of %d", ErrBadSnapshot, q.Node, pi, len(packets))
			}
			p := packets[pi]
			if p.Arrived() || p.Dropped() || p.Node != q.Node {
				return fmt.Errorf("%w: packet %d queued at node %d but not live there", ErrBadSnapshot, p.ID, q.Node)
			}
			if queued[pi] {
				return fmt.Errorf("%w: packet %d queued twice", ErrBadSnapshot, p.ID)
			}
			queued[pi] = true
			enqueued++
		}
	}
	if enqueued != live {
		return fmt.Errorf("%w: %d live packets but %d queued", ErrBadSnapshot, live, enqueued)
	}
	// The injector's state goes in before the packets do, so a refusal of
	// its bytes leaves the engine fresh too.
	if s.HasInjector && len(s.InjectorState) > 0 {
		ci, ok := e.injector.(CheckpointableInjector)
		if !ok {
			return fmt.Errorf("%w: snapshot carries injector state but injector %T cannot restore it", ErrBadSnapshot, e.injector)
		}
		if err := ci.RestoreState(s.InjectorState); err != nil {
			return fmt.Errorf("%w: restore injector state: %w", ErrBadSnapshot, err)
		}
	}
	for _, q := range queues {
		for _, pi := range q.Packets {
			packets[pi].Locate(e.topo)
			e.q.Push(int(q.Node), packets[pi])
		}
	}
	e.packets = packets
	e.live = live
	e.nextID = s.NextID
	e.time = s.Time
	e.lastArrival = s.LastArrival
	e.src.SetState(s.SerialRNG)

	e.livelock = s.Livelocked
	if e.livelockable {
		// Files of older builds list Seen in map order; the log is by Time.
		e.seenLog = slices.Clone(s.Seen)
		slices.SortFunc(e.seenLog, func(a, b SeenState) int {
			return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Hash, b.Hash))
		})
		e.seen = make(map[uint64]struct{}, len(s.Seen))
		for _, entry := range s.Seen {
			e.seen[entry.Hash] = struct{}{}
		}
	}

	e.totalDeflections = s.TotalDeflections
	e.totalHops = s.TotalHops
	e.maxNodeLoad = s.MaxNodeLoad
	e.reroutes = s.Reroutes
	e.dropped = s.Dropped
	e.absorbed = s.Absorbed
	e.dropCrash = s.DroppedCrash
	e.dropUnreachable = s.DroppedUnreachable
	e.dropStranded = s.DroppedStranded
	e.dropInject = s.DroppedInject

	if s.HasFaults {
		// Replay the fault clock: the model contract (deterministic given its
		// state and the dedicated RNG stream) means advancing a fresh model
		// through steps [0, Time) reproduces the overlay, the cumulative
		// failure counters, the model's own cursor AND the fault RNG position
		// in one pass — nothing about the overlay needs serializing.
		for t := 0; t < s.Time; t++ {
			e.faults.Advance(t, e.overlay, e.faultRng)
		}
		e.faultVersion = e.overlay.Version()
		if got := overlayDigest(e.overlay); got != s.OverlayDigest {
			return fmt.Errorf("%w: fault replay diverged (overlay digest %#x, snapshot %#x; %d/%d link/node failures vs %d/%d) — the installed model must be a fresh instance of the snapshotted one",
				ErrBadSnapshot, got, s.OverlayDigest,
				e.overlay.LinkFailures(), e.overlay.NodeFailures(), s.LinkFailures, s.NodeFailures)
		}
	}
	return nil
}

// overlayDigest hashes the full failure state of an overlay: every arc's
// up/down bit, every node's up/down bit, and the cumulative transition
// counters. Two overlays with equal digests are (collision probability
// aside) in identical failure states with identical histories.
func overlayDigest(o *mesh.Overlay) uint64 {
	h := uint64(0x517cc1b727220a95)
	base := o.Base()
	dirs := base.DirCount()
	var word uint64
	bits := 0
	fold := func(b bool) {
		word <<= 1
		if b {
			word |= 1
		}
		if bits++; bits == 64 {
			h = mix64(h, word)
			word, bits = 0, 0
		}
	}
	for id := 0; id < base.Size(); id++ {
		fold(o.NodeDown(mesh.NodeID(id)))
		for d := 0; d < dirs; d++ {
			fold(o.LinkDown(mesh.NodeID(id), mesh.Dir(d)))
		}
	}
	h = mix64(h, word<<(64-bits)|uint64(bits))
	h = mix64(h, uint64(o.DownLinks())<<32|uint64(o.DownNodes()))
	h = mix64(h, uint64(o.LinkFailures())<<32|uint64(o.NodeFailures()))
	return h
}
