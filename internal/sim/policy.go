package sim

import (
	"math/rand"

	"hotpotato/internal/mesh"
)

// PacketInfo is the engine-precomputed routing information for one packet in
// a node: its good directions (Definition 5) and its restricted-type
// classification (Section 4.1).
type PacketInfo struct {
	goodBuf [2 * mesh.MaxDim]mesh.Dir
	// GoodCount is the number of good directions (1..d for live packets).
	GoodCount int
	// Restricted reports whether the packet has exactly one good direction.
	Restricted bool
	// TypeA reports whether the packet is a restricted packet of type A:
	// it is restricted now, was restricted at the beginning of the previous
	// step, and advanced in that step. Restricted packets that are not type
	// A are type B. Meaningless when Restricted is false.
	TypeA bool
}

// Good returns the packet's good directions, ordered by axis. The slice
// aliases engine-owned scratch memory valid only during the Route call.
// Policies may reorder it in place (e.g., to randomize arc preference) but
// must not change the set of directions it holds.
func (pi *PacketInfo) Good() []mesh.Dir { return pi.goodBuf[:pi.GoodCount] }

// NodeState is the local view a policy gets of one node in one step: exactly
// the information the paper's model allows a node to use (the packets that
// are currently in it, with their destinations, entry arcs and locally
// trackable history flags).
type NodeState struct {
	// Mesh is the network topology the node routes against: the engine's
	// *mesh.Tables. Without faults that is the mesh's shared table; with a
	// fault model installed it is the failure overlay's masked copy, whose
	// connectivity methods (HasArc, Degree, GoodDirs) reflect the surviving
	// arcs while geometry (Dist, coordinates) stays that of the intact mesh
	// — a bufferless router knows its live ports but has no global failure
	// map.
	Mesh mesh.Topology
	// Node is the node being routed.
	Node mesh.NodeID
	// Time is the current step index.
	Time int
	// Packets are the packets to route this step. None of them is at its
	// destination. Policies must not mutate the packets.
	Packets []*Packet

	infos []PacketInfo
}

// Info returns the precomputed routing information for Packets[i].
func (ns *NodeState) Info(i int) *PacketInfo { return &ns.infos[i] }

// HasArc reports whether the node has an outgoing arc in direction dir.
func (ns *NodeState) HasArc(dir mesh.Dir) bool { return ns.Mesh.HasArc(ns.Node, dir) }

// Degree returns the node's out-degree.
func (ns *NodeState) Degree() int { return ns.Mesh.Degree(ns.Node) }

// Policy is a hot-potato routing algorithm: a single uniform local decision
// rule applied at every node in every step (Section 2). Route must assign a
// distinct existing outgoing arc direction to every packet by filling
// out[i] for each ns.Packets[i]; the hot-potato constraint means no packet
// may be left unassigned. The engine validates assignments according to its
// configured validation level.
//
// rng is a deterministic per-engine source that randomized policies may use
// for tie-breaking; deterministic policies must ignore it (and should report
// Deterministic() == true so that livelock detection is sound).
type Policy interface {
	// Name identifies the policy in results and tables.
	Name() string
	// Route assigns an outgoing direction to every packet of the node.
	Route(ns *NodeState, out []mesh.Dir, rng *rand.Rand)
	// Deterministic reports whether Route is a pure function of the node
	// state (it never consults rng). The engine's livelock detector only
	// fires for deterministic policies.
	Deterministic() bool
}
