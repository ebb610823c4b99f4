package sim

import "hotpotato/internal/mesh"

// Move records the routing of one packet during one step.
//
// The fields are ordered widest first so a Move packs into 32 bytes, half a
// cache line: the engines write one per packet per step.
type Move struct {
	// Packet is the moved packet (its fields reflect the post-move state by
	// the time observers run).
	Packet *Packet
	// GoodCount is the number of good directions the packet had at From.
	GoodCount int
	// From is the node the packet was routed out of.
	From mesh.NodeID
	// To is the node the packet entered.
	To mesh.NodeID
	// Dir is the arc direction taken.
	Dir mesh.Dir
	// Advanced reports whether the move decreased the packet's distance to
	// its destination; !Advanced means the packet was deflected.
	Advanced bool
	// WasRestricted reports GoodCount == 1.
	WasRestricted bool
	// WasTypeA reports whether the packet was a restricted type-A packet at
	// From (see PacketInfo.TypeA).
	WasTypeA bool
	// ArrivedNow reports whether the packet reached its destination with
	// this move.
	ArrivedNow bool
}

// StepRecord describes one complete synchronous step: the movement of every
// live packet from the configuration at Time to the configuration at
// Time+1. Moves are grouped by source node: all moves out of one node are
// contiguous.
type StepRecord struct {
	// Time is the index t of the step; moves transform the configuration at
	// the beginning of step t into the one at the beginning of step t+1.
	Time int
	// Moves lists every packet movement of the step, grouped by From.
	Moves []Move
}

// Observer receives a record after every engine step. The record and its
// moves are only valid during the call; observers that need them later must
// copy. Observers run in registration order.
type Observer interface {
	OnStep(rec *StepRecord)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(rec *StepRecord)

// OnStep implements Observer.
func (f ObserverFunc) OnStep(rec *StepRecord) { f(rec) }
