package sim

import (
	"fmt"
	"math/rand"

	"hotpotato/internal/mesh"
	"hotpotato/internal/rng"
)

// This file is the engine's sharding surface: the pieces of the stepping
// machinery a spatially-decomposed runner (internal/shard) must share with
// the single-engine path so that a sharded run is bit-identical to a
// single-shard one. Everything here is a re-export or refactoring of logic
// the engine already executes — NodeSeed is the parallel path's tie-break
// derivation, NodeRouter is routeNode against an arbitrary topology view,
// and the ConfigHash fold is the livelock detector's hash — so the two
// paths cannot drift apart.

// NodeSeed derives the tie-break RNG seed for routing one node in one step.
// It is the exact derivation the engine's parallel path uses (per (seed,
// step, node), independent of worker count and of how nodes are partitioned
// across goroutines), which is what makes randomized-policy outcomes
// identical across shard geometries: the stream a node's packets draw from
// depends only on the global seed, the step and the node's global id.
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

// Packet materializes the captured state back into a live Packet.
func (ps *PacketState) Packet() *Packet {
	return &Packet{
		ID: ps.ID, Src: ps.Src, Dst: ps.Dst, Node: ps.Node,
		EnteredVia: ps.EnteredVia, InjectedAt: ps.InjectedAt, Class: ps.Class,
		ArrivedAt: ps.ArrivedAt, DroppedAt: ps.DroppedAt, Cause: ps.Cause,
		Hops: ps.Hops, Deflections: ps.Deflections,
		AdvancedPrev: ps.AdvancedPrev, RestrictedPrev: ps.RestrictedPrev,
		GoodPrev: ps.GoodPrev,
	}
}

// goodDirser is the devirtualized good-direction fast path shared by
// *mesh.Tables and *mesh.Subgrid: fill a fixed buffer instead of appending
// through the Topology interface.
type goodDirser interface {
	GoodDirsInto(from, dst mesh.NodeID, buf *[2 * mesh.MaxDim]mesh.Dir) int
}

// NodeRouter routes single nodes against an arbitrary topology view — for
// the sharded engine, a *mesh.Subgrid whose connectivity reaches into halo
// territory owned by neighboring shards. It reproduces the engine's
// routeNode exactly: the same PacketInfo precomputation, the same policy
// invocation with panic isolation, the same validation levels, and the same
// Move records — so moves produced by P shard routers are indistinguishable
// from the single engine's, including the boundary-crossing ones the shard
// runner diverts into its halo exchange.
//
// A NodeRouter is single-goroutine state (one exists per shard); the policy
// handed to it must be that shard's own instance or clone.
type NodeRouter struct {
	topo       mesh.Topology
	gd         goodDirser // non-nil when topo provides the fast path
	policy     Policy
	seed       int64
	validation ValidationLevel

	ns       NodeState
	out      []mesh.Dir
	dirOwner []int
	src      rng.SplitMix64
	rnd      *rand.Rand

	// MaxNodeLoad and Reroutes accumulate across RouteNode calls; the shard
	// runner drains them into its global counters at step barriers.
	MaxNodeLoad int
	Reroutes    int64

	// Tail pad to 256 B (four cache lines, and its own allocator size class).
	// At 224 B two routers allocated back to back — adjacent shards' — sit at
	// offsets 0 and 224 of one span, so one shard's per-node writes (src
	// reseed, MaxNodeLoad, Reroutes) keep invalidating the line that holds
	// its neighbour's topo/gd, read on every RouteNode.
	_ [32]byte
}

// NewNodeRouter returns a router over the given topology view. Tie-break
// randomness is derived per node via NodeSeed(seed, t, node).
func NewNodeRouter(topo mesh.Topology, policy Policy, seed int64, validation ValidationLevel) *NodeRouter {
	r := &NodeRouter{
		topo:       topo,
		policy:     policy,
		seed:       seed,
		validation: validation,
		out:        make([]mesh.Dir, 0, topo.DirCount()),
		dirOwner:   make([]int, topo.DirCount()),
	}
	if gd, ok := topo.(goodDirser); ok {
		r.gd = gd
	}
	r.ns.Mesh = topo
	r.ns.infos = make([]PacketInfo, 0, topo.DirCount())
	r.rnd = rand.New(&r.src)
	return r
}

// RouteNode routes one node's packets at step t, writing exactly len(pkts)
// moves into dst (which must have length len(pkts)). Node ids — including
// Move.To for boundary-crossing moves — are global.
func (r *NodeRouter) RouteNode(node mesh.NodeID, t int, pkts []*Packet, dst []Move) error {
	if len(pkts) > r.MaxNodeLoad {
		r.MaxNodeLoad = len(pkts)
	}
	ns := &r.ns
	ns.Node = node
	ns.Time = t
	ns.Packets = pkts
	if cap(ns.infos) < len(pkts) {
		ns.infos = make([]PacketInfo, len(pkts))
	} else {
		ns.infos = ns.infos[:len(pkts)]
	}
	for i, p := range pkts {
		pi := &ns.infos[i]
		if r.gd != nil {
			pi.GoodCount = r.gd.GoodDirsInto(p.Node, p.Dst, &pi.goodBuf)
		} else {
			pi.GoodCount = len(r.topo.GoodDirs(p.Node, p.Dst, pi.goodBuf[:0]))
		}
		if pi.GoodCount == 0 {
			r.Reroutes++
		}
		pi.Restricted = pi.GoodCount == 1
		pi.TypeA = pi.Restricted && p.RestrictedPrev && p.AdvancedPrev
	}

	r.out = r.out[:len(pkts)]
	for i := range r.out {
		r.out[i] = mesh.NoDir
	}
	r.src.Seed(NodeSeed(r.seed, t, node))
	if err := r.routePolicy(); err != nil {
		return fmt.Errorf("step %d node %d: %w", t, node, err)
	}

	dirCount := r.topo.DirCount()
	if r.validation > ValidateOff {
		for i := range r.dirOwner {
			r.dirOwner[i] = -1
		}
		for i, dir := range r.out {
			p := pkts[i]
			if dir < 0 || int(dir) >= dirCount {
				return fmt.Errorf("%w: step %d node %d packet %d (dir %d)",
					ErrUnassigned, t, node, p.ID, dir)
			}
			if !r.topo.HasArc(node, dir) {
				return fmt.Errorf("%w: step %d node %d packet %d via %v",
					ErrOffMesh, t, node, p.ID, dir)
			}
			if prev := r.dirOwner[dir]; prev >= 0 {
				return fmt.Errorf("%w: step %d node %d packets %d and %d both via %v",
					ErrLinkConflict, t, node, pkts[prev].ID, p.ID, dir)
			}
			r.dirOwner[dir] = i
		}
		if err := validateGreedy(ns, r.out, r.dirOwner, r.validation); err != nil {
			return err
		}
	}
	for i, p := range pkts {
		dir := r.out[i]
		var to mesh.NodeID
		ok := dir >= 0 && int(dir) < dirCount
		if ok {
			to, ok = r.topo.Neighbor(node, dir)
		}
		if !ok {
			return fmt.Errorf("%w: step %d node %d packet %d via %v", ErrOffMesh, t, node, p.ID, dir)
		}
		pi := ns.Info(i)
		adv := goodContains(pi, dir)
		dst[i] = Move{
			Packet:        p,
			From:          node,
			To:            to,
			Dir:           dir,
			Advanced:      adv,
			GoodCount:     pi.GoodCount,
			WasRestricted: pi.Restricted,
			WasTypeA:      pi.TypeA,
			ArrivedNow:    to == p.Dst,
		}
	}
	return nil
}

// routePolicy invokes the policy with panic isolation, mirroring
// routeScratch.routePolicy.
func (r *NodeRouter) routePolicy() (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: policy %s: %v", ErrPolicyPanic, r.policy.Name(), rec)
		}
	}()
	r.policy.Route(&r.ns, r.out, r.rnd)
	return nil
}
