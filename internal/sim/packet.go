package sim

import (
	"fmt"

	"hotpotato/internal/mesh"
)

// Packet is one routed message. The engine owns all mutable fields after the
// packet is handed to New; policies must treat packets as read-only.
//
// Per the paper's model (Section 2), routing decisions may depend on the
// destination and the entry arc of a packet but never on its source; Src is
// carried only for accounting.
type Packet struct {
	// ID is a caller-assigned unique identifier.
	ID int
	// Src is the origin node (where the packet is injected at time 0).
	Src mesh.NodeID
	// Dst is the destination node.
	Dst mesh.NodeID

	// Node is the node currently holding the packet.
	Node mesh.NodeID
	// EnteredVia is the direction of the arc through which the packet
	// entered Node, or mesh.NoDir right after injection.
	EnteredVia mesh.Dir

	// The history fields and the displacement sit with the position: a
	// packet can straddle two cache lines, and the router reads ID, Dst,
	// Node, these and disp for every packet it routes, all within the first
	// 40 bytes.

	// AdvancedPrev reports whether the packet advanced (got closer to its
	// destination) in the previous step. False right after injection.
	AdvancedPrev bool
	// RestrictedPrev reports whether the packet was restricted (had exactly
	// one good direction) at the beginning of the previous step. False
	// right after injection.
	RestrictedPrev bool
	// GoodPrev is the packet's good-direction count at the beginning of the
	// previous step, or 0 right after injection.
	GoodPrev uint8

	// disp is the packet's displacement from Node to Dst, the input of its
	// good directions (mesh.Tables.DispGood). It is derived state: set from
	// the coordinate rows (Locate) wherever a packet is queued other than by
	// a move, updated by every applied move (MoveTally.Apply), and never
	// serialized.
	disp mesh.Disp

	// InjectedAt is the step at which the packet entered the network:
	// 0 for batch instances, the injection step for dynamic traffic.
	// Age-based policies may use it (locally trackable information).
	InjectedAt int
	// Class is an application-assigned traffic class (larger = more
	// important); it rides in the packet header, so policies may use it.
	// Zero by default.
	Class int
	// ArrivedAt is the step at which the packet reached Dst, or -1.
	ArrivedAt int
	// DroppedAt is the step at which the engine removed the packet
	// undelivered (fault degradation), or -1. Use Dropped() to test: tests
	// that build packets as struct literals leave this zero-valued, and
	// Cause is the authoritative flag.
	DroppedAt int
	// Hops is the number of arcs traversed so far.
	Hops int
	// Deflections is the number of steps in which the packet moved away
	// from its destination.
	Deflections int

	// pos is the packet's position in its sim.Engine's packet list, stamped
	// when the packet joins it (New, injection, Restore): the checkpoint
	// encoder writes queues as positions and reads them here instead of
	// building an ID map per save.
	pos int32
	// Cause records why the packet was removed undelivered; DropNone while
	// the packet is live or after delivery. It sits with pos in the tail,
	// where the router never reads.
	Cause DropCause
}

// Locate sets the packet's carried displacement from its node to its
// destination from tab's coordinate rows. Every path that queues a packet
// other than by applying its move calls it — admission, Restore, a shard's
// load and halo ingress — and so must a caller that routes packets it
// built itself through NodeRouter.RouteNode.
func (p *Packet) Locate(tab *mesh.Tables) { p.disp = tab.Disp(p.Node, p.Dst) }

// Disp returns the packet's carried displacement to its destination (see
// mesh.Disp), valid while the packet is queued.
func (p *Packet) Disp() mesh.Disp { return p.disp }

// NewPacket returns a packet ready for injection at src.
func NewPacket(id int, src, dst mesh.NodeID) *Packet {
	return &Packet{ID: id, Src: src, Dst: dst, Node: src, EnteredVia: mesh.NoDir, ArrivedAt: -1, DroppedAt: -1}
}

// Arrived reports whether the packet has reached its destination and left
// the network.
func (p *Packet) Arrived() bool { return p.ArrivedAt >= 0 }

// Dropped reports whether the engine removed the packet undelivered
// (crash, unreachable destination, stranding, or refused injection).
func (p *Packet) Dropped() bool { return p.Cause != DropNone }

// Delay returns the number of steps the packet spent in the network, or -1
// if it has not arrived yet.
func (p *Packet) Delay() int {
	if !p.Arrived() {
		return -1
	}
	return p.ArrivedAt - p.InjectedAt
}

// String renders a compact human-readable description.
func (p *Packet) String() string {
	status := fmt.Sprintf("at %d", p.Node)
	if p.Arrived() {
		status = fmt.Sprintf("arrived t=%d", p.ArrivedAt)
	} else if p.Dropped() {
		status = fmt.Sprintf("dropped t=%d (%s)", p.DroppedAt, p.Cause)
	}
	return fmt.Sprintf("packet %d (%d->%d, %s)", p.ID, p.Src, p.Dst, status)
}
