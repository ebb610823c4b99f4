package sim

import (
	"fmt"
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
		GoodPrev: p.GoodPrev,
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
	ps.AdvancedPrev, ps.RestrictedPrev, ps.GoodPrev = p.AdvancedPrev, p.RestrictedPrev, p.GoodPrev
}

// Packet materializes the captured state back into a live Packet.
func (ps *PacketState) Packet() *Packet {
	p := new(Packet)
	ps.fill(p)
	return p
}

// fill writes the captured state into p's observable fields, field by field
// for capture's reason: Restore fills every packet of its slab, and Packet()
// is on dshard's per-move decode path.
func (ps *PacketState) fill(p *Packet) {
	p.ID, p.Src, p.Dst, p.Node = ps.ID, ps.Src, ps.Dst, ps.Node
	p.EnteredVia, p.InjectedAt, p.Class = ps.EnteredVia, ps.InjectedAt, ps.Class
	p.ArrivedAt, p.DroppedAt, p.Cause = ps.ArrivedAt, ps.DroppedAt, ps.Cause
	p.Hops, p.Deflections = ps.Hops, ps.Deflections
	p.AdvancedPrev, p.RestrictedPrev, p.GoodPrev = ps.AdvancedPrev, ps.RestrictedPrev, ps.GoodPrev
}

// NodeRouter routes single nodes against a *mesh.Tables: the mesh's shared
// table (the single engine without faults, every shard and every distributed
// worker — neighbor entries are global ids, so a boundary move simply names a
// node another shard owns) or a failure overlay's masked copy (with faults).
// It is the only caller of Policy.Route: the PacketInfo precomputation, the
// policy invocation with panic isolation, the validation levels and the Move
// records all live here, so moves produced by P shard routers are
// indistinguishable from the single engine's, including the
// boundary-crossing ones the shard runner diverts into its halo exchange.
//
// A NodeRouter is single-goroutine state (one exists per engine or shard);
// the policy handed to it must be that shard's own instance or clone.
type NodeRouter struct {
	tab        *mesh.Tables
	policy     Policy
	seed       int64
	validation ValidationLevel
	dirCount   int
	// reseed is false for deterministic policies, which never consult the
	// tie-break stream: they skip the per-node seed derivation.
	reseed bool

	ns       NodeState
	out      []mesh.Dir
	dirOwner []int
	src      rng.SplitMix64
	rnd      *rand.Rand

	// maxNodeLoad and reroutes accumulate across RouteNode calls; the
	// engines drain them into their global counters after each step
	// (DrainCounters).
	maxNodeLoad int
	reroutes    int64

	// Tail pad to 256 B (four cache lines, and its own allocator size class).
	// Unpadded, two routers allocated back to back — adjacent shards' — share
	// a line, so one shard's per-node writes (src reseed, maxNodeLoad,
	// reroutes) keep invalidating the line that holds its neighbour's tab,
	// read on every RouteNode.
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
		out:        make([]mesh.Dir, 0, tab.DirCount()),
		dirOwner:   make([]int, tab.DirCount()),
	}
	r.ns.Mesh = tab
	r.ns.infos = make([]PacketInfo, 0, tab.DirCount())
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
// Move.To for boundary-crossing moves — are global.
func (r *NodeRouter) RouteNode(node mesh.NodeID, t int, pkts []*Packet, dst []Move) error {
	r.maxNodeLoad = max(r.maxNodeLoad, len(pkts))
	ns := &r.ns
	ns.Node = node
	ns.Time = t
	ns.Packets = pkts
	// Good directions come from the routing table, so under faults they are
	// the surviving good arcs; a live packet with GoodCount == 0 (possible
	// only when faults cut every geometrically good arc) is a forced
	// reroute. The infos are filled in place, never copied through a stack
	// temporary.
	if cap(ns.infos) < len(pkts) {
		ns.infos = make([]PacketInfo, len(pkts))
	} else {
		ns.infos = ns.infos[:len(pkts)]
	}
	tab := r.tab
	for i, p := range pkts {
		pi := &ns.infos[i]
		pi.GoodCount = tab.GoodDirsInto(p.Node, p.Dst, &pi.goodBuf)
		if pi.GoodCount == 0 {
			r.reroutes++
		}
		pi.Restricted = pi.GoodCount == 1
		pi.TypeA = pi.Restricted && p.RestrictedPrev && p.AdvancedPrev
	}

	r.out = r.out[:len(pkts)]
	for i := range r.out {
		r.out[i] = mesh.NoDir
	}
	if r.reseed {
		r.src.Seed(NodeSeed(r.seed, t, node))
	}
	if err := r.routePolicy(); err != nil {
		return fmt.Errorf("step %d node %d: %w", t, node, err)
	}

	if r.validation > ValidateOff {
		if err := r.validate(); err != nil {
			return err
		}
	}
	dirCount := r.dirCount
	for i, p := range pkts {
		dir := r.out[i]
		var to mesh.NodeID
		ok := dir >= 0 && int(dir) < dirCount
		if ok {
			to, ok = tab.Neighbor(node, dir)
		}
		if !ok {
			// Unvalidated policies can still not corrupt the engine (nor
			// route through an arc the failure set removed).
			return fmt.Errorf("%w: step %d node %d packet %d via %v", ErrOffMesh, t, node, p.ID, dir)
		}
		pi := ns.Info(i)
		dst[i] = Move{
			Packet:        p,
			From:          node,
			To:            to,
			Dir:           dir,
			Advanced:      goodContains(pi, dir),
			GoodCount:     pi.GoodCount,
			WasRestricted: pi.Restricted,
			WasTypeA:      pi.TypeA,
			ArrivedNow:    to == p.Dst,
		}
	}
	return nil
}

// routePolicy invokes the policy with panic isolation: a panicking Route
// surfaces as an ErrPolicyPanic instead of tearing down the process (or a
// shard goroutine).
func (r *NodeRouter) routePolicy() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: policy %s: %v", ErrPolicyPanic, r.policy.Name(), rec)
		}
	}()
	r.policy.Route(&r.ns, r.out, r.rnd)
	return nil
}

// validate checks the assignment in r.out for the node state in r.ns
// according to the configured validation level: model legality (every
// packet on a distinct existing arc), then greediness and restricted
// preference.
func (r *NodeRouter) validate() error {
	ns := &r.ns
	for i := range r.dirOwner {
		r.dirOwner[i] = -1
	}
	for i, dir := range r.out {
		p := ns.Packets[i]
		if dir < 0 || int(dir) >= r.dirCount {
			return fmt.Errorf("%w: step %d node %d packet %d (dir %d)",
				ErrUnassigned, ns.Time, ns.Node, p.ID, dir)
		}
		if !r.tab.HasArc(ns.Node, dir) {
			return fmt.Errorf("%w: step %d node %d packet %d via %v",
				ErrOffMesh, ns.Time, ns.Node, p.ID, dir)
		}
		if prev := r.dirOwner[dir]; prev >= 0 {
			return fmt.Errorf("%w: step %d node %d packets %d and %d both via %v",
				ErrLinkConflict, ns.Time, ns.Node, ns.Packets[prev].ID, p.ID, dir)
		}
		r.dirOwner[dir] = i
	}
	if r.validation < ValidateGreedy {
		return nil
	}
	for i, dir := range r.out {
		pi := ns.Info(i)
		if goodContains(pi, dir) {
			continue // advancing
		}
		// Packet i is deflected: every (surviving) good arc must carry an
		// advancing packet (Definition 6), and if packet i is restricted,
		// that advancing packet must itself be restricted (Definition 18).
		for _, g := range pi.Good() {
			j := r.dirOwner[g]
			if j < 0 || !goodContains(ns.Info(j), g) {
				return fmt.Errorf("%w: step %d node %d packet %d deflected with free good arc %v",
					ErrNotGreedy, ns.Time, ns.Node, ns.Packets[i].ID, g)
			}
			if r.validation >= ValidateRestricted && pi.Restricted && !ns.Info(j).Restricted {
				return fmt.Errorf("%w: step %d node %d packet %d deflected by non-restricted packet %d",
					ErrNotRestrictedPreferring, ns.Time, ns.Node, ns.Packets[i].ID, ns.Packets[j].ID)
			}
		}
	}
	return nil
}

// goodContains reports whether dir belongs to the packet's (surviving) good
// set. RouteNode already computed the set, so a scan of its at-most-2·dim
// entries replaces a coordinate-arithmetic IsGoodDir call on the hot path —
// and under faults it automatically means "surviving good arc".
func goodContains(pi *PacketInfo, dir mesh.Dir) bool {
	for _, g := range pi.Good() {
		if g == dir {
			return true
		}
	}
	return false
}
