package sim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"hotpotato/internal/mesh"
	"hotpotato/internal/rng"
)

// This file is the routing kernel every engine steps through — the single
// engine here, the sharded engine (internal/shard) and the distributed
// workers (internal/dshard): NodeSeed is the one tie-break derivation,
// NodeRouter the one implementation of "route one node", and the ConfigHash
// fold the one livelock-detector hash. Because there is no second copy, a
// sharded or distributed run is bit-identical to a single-engine one by
// construction, under randomized policies too.

// NodeSeed derives the tie-break RNG seed for routing one node in one step.
// The stream a node's packets draw from depends only on the global seed, the
// step and the node's global id — not on the engine, the shard geometry or
// the order nodes are routed in — which is what makes randomized-policy
// outcomes identical across engines and decompositions.
func NodeSeed(seed int64, t int, node mesh.NodeID) int64 {
	return rng.Mix(seed, int64(t), int64(node))
}

// ConfigHashSeed is the initial value of the configuration-hash fold.
const ConfigHashSeed = uint64(0x9e3779b97f4a7c15)

// ConfigHashPacket folds one live packet into a running configuration hash:
// its identity, position, entry arc and history flags. Folding every live
// packet in queue order over the globally-sorted active nodes, starting from
// ConfigHashSeed, yields exactly Engine.StateHash — the fold is chained
// (non-commutative), so the visit order is part of the contract.
func ConfigHashPacket(h uint64, p *Packet) uint64 {
	id, pos := ConfigHashPacketWords(p)
	return ConfigHashFold(h, id, pos)
}

// ConfigHashPacketWords returns the two words ConfigHashPacket folds for a
// packet: its identity and its position word (node, entry arc, history
// flags). The position word carries the packet's global node in its high 32
// bits, so a holder of the words alone can still order them by mesh row —
// which is how a distributed coordinator re-folds per-shard word streams
// into the global chained hash without shipping whole packets.
func ConfigHashPacketWords(p *Packet) (idWord, posWord uint64) {
	flags := uint64(p.EnteredVia) + 1
	if p.AdvancedPrev {
		flags |= 1 << 8
	}
	if p.RestrictedPrev {
		flags |= 1 << 9
	}
	flags |= uint64(p.GoodPrev) << 10
	return uint64(p.ID), uint64(p.Node)<<32 | flags
}

// ConfigHashFold chains one packet's word pair into a running configuration
// hash. ConfigHashPacket(h, p) == ConfigHashFold(h, ConfigHashPacketWords(p)).
func ConfigHashFold(h, idWord, posWord uint64) uint64 {
	return mix64(mix64(h, idWord), posWord)
}

// CapturePacket copies every observable field of a packet into its
// serializable form.
func CapturePacket(p *Packet) PacketState {
	return PacketState{
		ID: p.ID, Src: p.Src, Dst: p.Dst, Node: p.Node,
		EnteredVia: p.EnteredVia, InjectedAt: p.InjectedAt, Class: p.Class,
		ArrivedAt: p.ArrivedAt, DroppedAt: p.DroppedAt, Cause: p.Cause,
		Hops: p.Hops, Deflections: p.Deflections,
		AdvancedPrev: p.AdvancedPrev, RestrictedPrev: p.RestrictedPrev,
		GoodPrev: int(p.GoodPrev),
	}
}

// capture is CapturePacket into existing memory: the engine encoder and
// Snapshot capture every packet of every save, and assigning field by field
// skips the temporary that `*ps = CapturePacket(p)` is built in and copied
// from.
func (ps *PacketState) capture(p *Packet) {
	ps.ID, ps.Src, ps.Dst, ps.Node = p.ID, p.Src, p.Dst, p.Node
	ps.EnteredVia, ps.InjectedAt, ps.Class = p.EnteredVia, p.InjectedAt, p.Class
	ps.ArrivedAt, ps.DroppedAt, ps.Cause = p.ArrivedAt, p.DroppedAt, p.Cause
	ps.Hops, ps.Deflections = p.Hops, p.Deflections
	ps.AdvancedPrev, ps.RestrictedPrev, ps.GoodPrev = p.AdvancedPrev, p.RestrictedPrev, int(p.GoodPrev)
}

// Packet materializes the captured state back into a live Packet.
func (ps *PacketState) Packet() *Packet {
	p := new(Packet)
	ps.Fill(p)
	return p
}

// Fill writes the captured state into p's observable fields, field by field
// for capture's reason: Restore and a shard load fill every packet of their
// slab, and a dshard worker fills a recycled packet per halo move. GoodPrev
// is kept in a byte (every restore path refuses a count no node can have).
// The displacement is not state: whoever queues the packet Locates it.
func (ps *PacketState) Fill(p *Packet) {
	p.ID, p.Src, p.Dst, p.Node = ps.ID, ps.Src, ps.Dst, ps.Node
	p.EnteredVia, p.InjectedAt, p.Class = ps.EnteredVia, ps.InjectedAt, ps.Class
	p.ArrivedAt, p.DroppedAt, p.Cause = ps.ArrivedAt, ps.DroppedAt, ps.Cause
	p.Hops, p.Deflections = ps.Hops, ps.Deflections
	p.AdvancedPrev, p.RestrictedPrev, p.GoodPrev = ps.AdvancedPrev, ps.RestrictedPrev, uint8(ps.GoodPrev)
}

// NodeRouter routes single nodes against a *mesh.Tables: the mesh's shared
// table (the single engine without faults, every shard and every distributed
// worker — neighbor entries are global ids, so a boundary move simply names a
// node another shard owns) or a failure overlay's masked copy (with faults).
// It owns the one priority matching (a *PriorityPolicy's description, run on
// good-direction masks) and is the only caller of Policy.Route for every
// other policy: the good masks, the policy invocation with panic isolation,
// the validation levels and the Move records all live here, so moves
// produced by P shard routers are indistinguishable from the single
// engine's, including the boundary-crossing ones the shard runner diverts
// into its halo exchange.
//
// A NodeRouter is single-goroutine state (one exists per engine or shard);
// the policy handed to it must be that shard's own instance or clone.
type NodeRouter struct {
	tab        *mesh.Tables
	policy     Policy
	prio       *Priority // the policy's description when it is a *PriorityPolicy
	seed       int64
	validation ValidationLevel
	dirCount   int
	// reseed is false for deterministic policies, which never consult the
	// tie-break stream: they skip the per-node seed derivation.
	reseed bool

	ns  NodeState
	m   matcher
	src rng.SplitMix64
	rnd *rand.Rand

	// maxNodeLoad and reroutes accumulate across RouteNode calls; the
	// engines drain them into their global counters after each step
	// (DrainCounters).
	maxNodeLoad int
	reroutes    int64

	// Tail pad to a whole number of cache lines. Unpadded, two routers
	// allocated back to back — adjacent shards' — share a line, so one
	// shard's per-node writes (src reseed, maxNodeLoad, reroutes) keep
	// invalidating the line that holds its neighbour's tab, read on every
	// RouteNode.
	_ [48]byte
}

// NewNodeRouter returns a router over the given table. Tie-break randomness
// is derived per node via NodeSeed(seed, t, node).
func NewNodeRouter(tab *mesh.Tables, policy Policy, seed int64, validation ValidationLevel) *NodeRouter {
	r := &NodeRouter{
		tab:        tab,
		policy:     policy,
		seed:       seed,
		validation: validation,
		dirCount:   tab.DirCount(),
		reseed:     !policy.Deterministic(),
	}
	if pp, ok := policy.(*PriorityPolicy); ok {
		r.prio = &pp.pr
	} else {
		r.ns.infos = make([]PacketInfo, 0, tab.DirCount())
	}
	r.ns.Mesh = tab
	r.rnd = rand.New(&r.src)
	return r
}

// DrainCounters returns the largest node load and the reroute count seen
// since the last drain and resets both.
func (r *NodeRouter) DrainCounters() (maxNodeLoad int, reroutes int64) {
	maxNodeLoad, reroutes = r.maxNodeLoad, r.reroutes
	r.maxNodeLoad, r.reroutes = 0, 0
	return maxNodeLoad, reroutes
}

// RouteNode routes one node's packets at step t, writing exactly len(pkts)
// moves into dst (which must have length len(pkts)). Node ids — including
// Move.To for boundary-crossing moves — are global. A hop reads no geometry
// row: each packet's good directions come from the displacement it carries
// (so the packets must be queued by an engine, or Located), and on a mesh
// the next node is the arc bit plus the axis stride; only a torus reads its
// neighbour row.
func (r *NodeRouter) RouteNode(node mesh.NodeID, t int, pkts []*Packet, dst []Move) error {
	r.maxNodeLoad = max(r.maxNodeLoad, len(pkts))
	// Good directions come from each packet's carried displacement through
	// the routing table, so under faults they are the surviving good arcs; a
	// live packet with none (possible only when faults cut every
	// geometrically good arc) is a forced reroute.
	tab, m := r.tab, &r.m
	for i, p := range pkts {
		good := tab.DispGood(node, &p.disp)
		if good == 0 {
			r.reroutes++
		}
		m.good[i] = good
	}
	r.ns.Node, r.ns.Time = node, t
	if r.reseed {
		r.src.Seed(NodeSeed(r.seed, t, node))
	}
	if r.prio != nil && len(pkts) == 1 {
		m.out[0] = m.single(r.prio, &r.ns.Site, r.rnd) // no key, no matching: nothing can panic
	} else if err := r.route(pkts); err != nil {
		return fmt.Errorf("step %d node %d: %w", t, node, err)
	}

	if r.validation > ValidateOff {
		if err := r.validate(pkts); err != nil {
			return err
		}
	}
	for i, p := range pkts {
		dir := m.out[i]
		to, ok := tab.Neighbor(node, dir) // false for NoDir and any other non-arc
		if !ok {
			// Unvalidated policies can still not corrupt the engine (nor
			// route through an arc the failure set removed).
			return fmt.Errorf("%w: step %d node %d packet %d via %v", ErrOffMesh, t, node, p.ID, dir)
		}
		// Field by field: a composite literal is built on the stack and
		// copied in wide loads that stall on its narrow stores.
		good := m.good[i]
		mv := &dst[i]
		mv.Packet, mv.From, mv.To, mv.Dir = p, node, to, dir
		mv.Advanced = good>>dir&1 != 0
		mv.GoodCount = bits.OnesCount16(good)
		mv.WasRestricted = Restricted(good)
		mv.WasTypeA = TypeA(p, good)
		mv.ArrivedNow = to == p.Dst
	}
	return nil
}

// route fills r.m.out for the node — by the kernel's matching for a priority
// policy, by the policy's Route otherwise — with panic isolation: a
// panicking Route or priority key surfaces as an ErrPolicyPanic instead of
// tearing down the process (or a shard goroutine).
func (r *NodeRouter) route(pkts []*Packet) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: policy %s: %v", ErrPolicyPanic, r.policy.Name(), rec)
		}
	}()
	if r.prio != nil {
		r.m.route(r.prio, &r.ns.Site, pkts, r.rnd)
		return nil
	}
	ns := &r.ns
	ns.Packets = pkts
	ns.infos = ns.infos[:len(pkts)]
	out := r.m.out[:len(pkts)]
	for i, p := range pkts {
		ns.infos[i].set(p, r.m.good[i])
		out[i] = mesh.NoDir
	}
	r.policy.Route(ns, out, r.rnd)
	return nil
}

// validate checks the assignment in r.m.out according to the configured
// validation level: model legality (every packet on a distinct existing
// arc), then greediness and restricted preference, all on masks.
func (r *NodeRouter) validate(pkts []*Packet) error {
	s, m := &r.ns.Site, &r.m
	arcs := r.tab.ArcMask(s.Node)
	var owner [maxDeg]uint8
	taken := uint16(0)
	for i, dir := range m.out[:len(pkts)] {
		p := pkts[i]
		if dir < 0 || int(dir) >= r.dirCount {
			return fmt.Errorf("%w: step %d node %d packet %d (dir %d)",
				ErrUnassigned, s.Time, s.Node, p.ID, dir)
		}
		bit := uint16(1) << dir
		if arcs&bit == 0 {
			return fmt.Errorf("%w: step %d node %d packet %d via %v",
				ErrOffMesh, s.Time, s.Node, p.ID, dir)
		}
		if taken&bit != 0 {
			return fmt.Errorf("%w: step %d node %d packets %d and %d both via %v",
				ErrLinkConflict, s.Time, s.Node, pkts[owner[dir]].ID, p.ID, dir)
		}
		taken |= bit
		owner[dir] = uint8(i)
	}
	if r.validation < ValidateGreedy {
		return nil
	}
	for i, dir := range m.out[:len(pkts)] {
		good := m.good[i]
		if good>>dir&1 != 0 {
			continue // advancing
		}
		// Packet i is deflected: every (surviving) good arc must carry an
		// advancing packet (Definition 6), and if packet i is restricted,
		// that advancing packet must itself be restricted (Definition 18).
		for rest := good; rest != 0; rest &= rest - 1 {
			g := bits.TrailingZeros16(rest)
			j := owner[g]
			if taken>>g&1 == 0 || m.good[j]>>g&1 == 0 {
				return fmt.Errorf("%w: step %d node %d packet %d deflected with free good arc %v",
					ErrNotGreedy, s.Time, s.Node, pkts[i].ID, mesh.Dir(g))
			}
			if r.validation >= ValidateRestricted && Restricted(good) && !Restricted(m.good[j]) {
				return fmt.Errorf("%w: step %d node %d packet %d deflected by non-restricted packet %d",
					ErrNotRestrictedPreferring, s.Time, s.Node, pkts[i].ID, pkts[j].ID)
			}
		}
	}
	return nil
}
