package sim

import "hotpotato/internal/mesh"

// ConflictPacket is one contender's view of a routing conflict: the features
// the priority rule could have used (age, distance, restriction status,
// deflection history) plus the outcome the engine actually issued.
type ConflictPacket struct {
	// ID is the packet's engine-assigned identity.
	ID int `json:"id"`
	// Dst is the packet's destination node.
	Dst mesh.NodeID `json:"dst"`
	// QueuePos is the packet's position in the node's queue at routing time —
	// the order the policy saw the contenders in. The policy's internal rank
	// values are not engine-visible (rank functions are closures), so traces
	// record the decision features and the induced outcome instead.
	QueuePos int `json:"pos"`
	// Age is the packet's age in steps at decision time (Time - InjectedAt).
	Age int `json:"age"`
	// Dist is the packet's distance to its destination before the move.
	Dist int `json:"dist"`
	// GoodCount is the number of good (distance-decreasing) directions the
	// packet had at the node.
	GoodCount int `json:"good"`
	// Restricted reports GoodCount == 1 (Definition 18).
	Restricted bool `json:"restricted,omitempty"`
	// TypeA reports whether the packet was a restricted type-A packet.
	TypeA bool `json:"type_a,omitempty"`
	// Deflections is the packet's deflection count before this conflict.
	Deflections int `json:"defl"`
	// Class is the packet's priority class (used by the class policy).
	Class int `json:"class,omitempty"`
	// Dir is the arc the engine issued to the packet.
	Dir mesh.Dir `json:"dir"`
	// Advanced reports whether the issued arc decreased the packet's
	// distance; the winners of the conflict advanced, the losers deflected.
	Advanced bool `json:"advanced"`
	// ArrivedNow reports whether the issued arc delivered the packet.
	ArrivedNow bool `json:"arrived,omitempty"`
}

// ConflictRecord describes one routing conflict: a node whose queue held two
// or more packets and whose routing deflected at least one of them. The
// record and its Contenders slice are engine-owned scratch, valid only
// during the OnConflict call; observers that keep records must copy.
type ConflictRecord struct {
	// Time is the step index t of the conflict (the configuration at t was
	// routed into the configuration at t+1).
	Time int `json:"t"`
	// Node is the node the conflict happened at.
	Node mesh.NodeID `json:"node"`
	// Winners counts the contenders that advanced.
	Winners int `json:"winners"`
	// Deflected counts the contenders that were deflected (≥ 1 by
	// construction).
	Deflected int `json:"deflected"`
	// DistBefore and DistAfter are the node's contribution to the global
	// distance potential (sum over contenders of distance-to-destination)
	// before and after the move — the per-conflict slice of the potential
	// trajectory the paper's Property 8 argues about.
	DistBefore int `json:"dist_before"`
	DistAfter  int `json:"dist_after"`
	// Contenders lists every packet routed out of the node this step, in
	// queue order.
	Contenders []ConflictPacket `json:"packets"`
}

// ConflictObserver receives a record for every routing conflict: every node
// whose queue held ≥ 2 packets and whose routing deflected ≥ 1 of them.
// Nodes that route all their packets forward are not conflicts — nothing was
// contended — and produce no record. The hook is opt-in and free when unset:
// with a nil observer the engine's hot path pays one predicted branch per
// step and allocates nothing (asserted by
// core.TestRestrictedPriorityStepAllocs).
type ConflictObserver interface {
	OnConflict(rec *ConflictRecord)
}

// ConflictObserverFunc adapts a function to the ConflictObserver interface.
type ConflictObserverFunc func(rec *ConflictRecord)

// OnConflict implements ConflictObserver.
func (f ConflictObserverFunc) OnConflict(rec *ConflictRecord) { f(rec) }

// SetConflictObserver installs (or, with nil, removes) the engine's conflict
// observer. Unlike AddObserver there is exactly one slot: conflict tracing
// is a diagnostic tap, and a single fan-out observer can multiplex.
func (e *Engine) SetConflictObserver(o ConflictObserver) { e.conflictObs = o }

// emitConflicts walks the step's move buffer — grouped contiguously by
// source node, in sorted node order — and emits one ConflictRecord per node
// group with ≥ 2 contenders and ≥ 1 deflection. Called after move
// application, so Packet fields reflect post-move state; the pre-move
// features recorded here are reconstructed from the Move (GoodCount,
// WasRestricted, Advanced) and the packet's immutable fields.
func (e *Engine) emitConflicts(t int) {
	moves := e.moves
	for i := 0; i < len(moves); {
		j := i + 1
		for j < len(moves) && moves[j].From == moves[i].From {
			j++
		}
		if j-i >= 2 {
			deflected := 0
			for k := i; k < j; k++ {
				if !moves[k].Advanced {
					deflected++
				}
			}
			if deflected > 0 {
				e.fillConflict(t, moves[i:j], deflected)
				e.conflictObs.OnConflict(&e.confRec)
			}
		}
		i = j
	}
}

// fillConflict populates the engine-owned scratch record from one node's
// move group. The Contenders backing array is reused across conflicts, so
// steady-state tracing allocates nothing in the engine itself.
func (e *Engine) fillConflict(t int, group []Move, deflected int) {
	rec := &e.confRec
	if cap(rec.Contenders) < len(group) {
		rec.Contenders = make([]ConflictPacket, len(group))
	}
	rec.Contenders = rec.Contenders[:len(group)]
	rec.Time = t
	rec.Node = group[0].From
	rec.Winners = len(group) - deflected
	rec.Deflected = deflected
	rec.DistBefore = 0
	rec.DistAfter = 0
	for k := range group {
		mv := &group[k]
		p := mv.Packet
		before := e.mesh.Dist(mv.From, p.Dst)
		after := e.mesh.Dist(mv.To, p.Dst)
		defl := p.Deflections
		if !mv.Advanced {
			defl-- // p.Deflections already includes this step's deflection
		}
		rec.Contenders[k] = ConflictPacket{
			ID:          p.ID,
			Dst:         p.Dst,
			QueuePos:    k,
			Age:         t - p.InjectedAt,
			Dist:        before,
			GoodCount:   mv.GoodCount,
			Restricted:  mv.WasRestricted,
			TypeA:       mv.WasTypeA,
			Deflections: defl,
			Class:       p.Class,
			Dir:         mv.Dir,
			Advanced:    mv.Advanced,
			ArrivedNow:  mv.ArrivedNow,
		}
		rec.DistBefore += before
		rec.DistAfter += after
	}
}
