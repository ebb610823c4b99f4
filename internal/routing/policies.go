// Package routing provides the family of baseline greedy hot-potato
// policies and the constructors for custom ones.
//
// Every policy here (and in package core) is a priority-matching policy: a
// sim.Priority the routing kernel executes — a priority key, a shuffle flag,
// a deflection rule and a single-pass flag. The kernel matches a node's
// packets to their good arcs in key order, which is what makes each of them
// greedy (Definition 6) and, with restricted packets keyed first, a policy
// that prefers restricted packets (Definition 18); see sim.Priority.
package routing

import "hotpotato/internal/sim"

// DeflectRule selects how deflected packets are spread over the leftover
// arcs. Every leftover arc is bad for every deflected packet (see
// sim.Priority), so the choice never affects compliance, only tie-breaking
// dynamics.
type DeflectRule int

const (
	// DeflectRandom assigns deflected packets to leftover arcs uniformly at
	// random. Randomized deflection is the standard way to break the
	// symmetric configurations that cause livelock.
	DeflectRandom DeflectRule = iota
	// DeflectFirstFit deterministically assigns deflected packets (in node
	// order) to leftover arcs in ascending direction order. Useful for
	// reproducible traces and for demonstrating livelock.
	DeflectFirstFit
)

// NewRandomGreedy returns the unstructured greedy baseline: every step each
// node advances a maximum number of packets with uniformly random priority
// among them, and deflects the rest onto uniformly random leftover arcs.
// This is the "pure greed" policy the paper warns may livelock when
// tie-breaking is deterministic; randomization makes livelock vanish in
// practice but admits no known time bound.
func NewRandomGreedy() sim.Policy {
	return NewCustom("greedy-random", nil, true, DeflectRandom)
}

// NewFixedPriority returns a fully deterministic greedy policy: packets are
// prioritized by ascending ID and deflected packets take leftover arcs in
// ascending direction order. With every tie broken the same way every step,
// symmetric configurations can repeat forever: this is the package's
// livelock demonstration policy (see Section 1.2 of the paper, citing
// [NS1] and [Haj], on how easily pure greed livelocks).
func NewFixedPriority() sim.Policy {
	return NewCustom("greedy-fixed",
		func(_ *sim.Site, p *sim.Packet, _ uint16) sim.Key { return sim.Key{Major: p.ID} },
		false, DeflectFirstFit)
}

// NewDestOrderGreedy returns a Brassil-Cruz-style greedy policy [BC]: a
// prespecified order on destinations (the snake rank of the destination
// node) determines priority, lower rank first, ties broken randomly.
func NewDestOrderGreedy() sim.Policy {
	return NewCustom("greedy-dest-order",
		func(s *sim.Site, p *sim.Packet, _ uint16) sim.Key { return sim.Key{Major: s.Mesh.SnakeRank(p.Dst)} },
		true, DeflectRandom)
}

// NewOldestFirst returns an age-priority greedy policy: packets injected
// earlier advance first (ties random). Age priority is the classic
// starvation-avoidance rule for continuous deflection traffic (the
// "distance/age priorities" of [ZA]); on batch instances, where every
// packet is injected at time 0, it degenerates to random priority.
func NewOldestFirst() sim.Policy {
	return NewCustom("greedy-oldest-first",
		func(_ *sim.Site, p *sim.Packet, _ uint16) sim.Key { return sim.Key{Major: p.InjectedAt} },
		true, DeflectRandom)
}

// NewClassPriority returns a strict-priority greedy policy for traffic
// classes: higher Class advances first, ties broken by age then randomly
// (the "distance age priorities" direction of [ZA] applied to QoS
// classes). Still a legal greedy policy: priorities only pick who wins a
// contended arc.
func NewClassPriority() sim.Policy {
	return NewCustom("greedy-class-priority",
		func(_ *sim.Site, p *sim.Packet, _ uint16) sim.Key {
			return sim.Key{Major: -p.Class, Minor: p.InjectedAt}
		},
		true, DeflectRandom)
}

// NewFarthestFirst returns a greedy policy that advances the packets
// farthest from their destinations first (ties random). A natural
// longest-job-first heuristic for makespan.
func NewFarthestFirst() sim.Policy {
	return NewCustom("greedy-farthest-first",
		func(s *sim.Site, p *sim.Packet, _ uint16) sim.Key { return sim.Key{Major: -s.Mesh.Dist(p.Node, p.Dst)} },
		true, DeflectRandom)
}

// NewNearestFirst returns a greedy policy that advances the packets closest
// to their destinations first (ties random), evacuating almost-home packets
// quickly at the cost of letting distant packets starve.
func NewNearestFirst() sim.Policy {
	return NewCustom("greedy-nearest-first",
		func(s *sim.Site, p *sim.Packet, _ uint16) sim.Key { return sim.Key{Major: s.Mesh.Dist(p.Node, p.Dst)} },
		true, DeflectRandom)
}

// NewCustom builds a priority-matching greedy policy from a priority key:
// lower keys advance first, and ties keep the (optionally shuffled) queue
// order. key may be nil (queue order); shuffle adds a random tie-break
// pass. The result is a valid greedy policy for any choice of parameters.
func NewCustom(name string, key sim.KeyFunc, shuffle bool, deflect DeflectRule) sim.Policy {
	return sim.NewPriorityPolicy(name, sim.Priority{
		Key:           key,
		Shuffle:       shuffle,
		RandomDeflect: deflect == DeflectRandom,
	})
}

// NewCustomSinglePass is NewCustom without maximum matching: each packet
// takes the first free good arc in priority order. Still greedy
// (Definition 6) but it does not maximize the number of advancing packets;
// exists as the ablation baseline for the matching machinery.
func NewCustomSinglePass(name string, key sim.KeyFunc, shuffle bool, deflect DeflectRule) sim.Policy {
	return sim.NewPriorityPolicy(name, sim.Priority{
		Key:           key,
		Shuffle:       shuffle,
		RandomDeflect: deflect == DeflectRandom,
		SinglePass:    true,
	})
}
