// Package routing provides the node-local assignment machinery shared by
// all greedy hot-potato policies, plus a family of baseline greedy policies.
//
// Every policy here (and in package core) is built on the same mechanism: a
// maximum matching between the packets of a node and their good arcs,
// computed with augmenting paths while processing packets in a
// policy-specific priority order. This construction gives the two
// structural guarantees the paper's definitions ask for:
//
//   - Definition 6 (greediness): the matching is maximum, so an unmatched
//     (deflected) packet can have no free good arc, and every leftover arc
//     handed to deflected packets is bad for all of them.
//   - Definition 18 (preferring restricted packets): a restricted packet
//     has a single good arc, so an augmenting path can never reroute it;
//     if restricted packets are processed first, their good arcs are owned
//     by restricted packets before any non-restricted packet is considered,
//     and can never be taken over later.
//
// Additionally, running augmentation for every packet yields a maximum-
// cardinality matching (Kuhn's algorithm), i.e. the "maximize the number of
// advancing packets" requirement of Section 5.
package routing

import (
	"math/rand"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// DeflectRule selects how deflected packets are spread over the leftover
// arcs. Every leftover arc is bad for every deflected packet (see package
// comment), so the choice never affects compliance, only tie-breaking
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

// Assigner computes Definition-6-compliant assignments for one node. It is
// reusable scratch; policies embed one. Not safe for concurrent use.
type Assigner struct {
	dirOwner [2 * mesh.MaxDim]int
	visited  uint16 // bit d: arc d already explored by the current augmentation
	free     [2 * mesh.MaxDim]mesh.Dir
}

// augment tries to find an augmenting path that matches packet i to one of
// its good arcs, possibly rerouting already-matched packets to alternative
// good arcs.
func (a *Assigner) augment(ns *sim.NodeState, i int, out []mesh.Dir) bool {
	for _, g := range ns.Info(i).Good() {
		if a.visited&(1<<g) != 0 {
			continue
		}
		a.visited |= 1 << g
		j := a.dirOwner[g]
		if j < 0 || a.augment(ns, j, out) {
			a.dirOwner[g] = i
			out[i] = g
			return true
		}
	}
	return false
}

// Assign fills out with a complete assignment for the node: a maximum
// matching of packets to good arcs computed in the given priority order
// (order lists packet indices, highest priority first), then deflected
// packets distributed over the remaining arcs per the deflect rule.
func (a *Assigner) Assign(ns *sim.NodeState, out []mesh.Dir, order []int, deflect DeflectRule, rng *rand.Rand) {
	dirCount := ns.Mesh.DirCount()
	for d := 0; d < dirCount; d++ {
		a.dirOwner[d] = -1
	}
	for i := range out {
		out[i] = mesh.NoDir
	}
	for _, i := range order {
		a.visited = 0
		a.augment(ns, i, out)
	}

	// Collect leftover arcs (existing and unmatched).
	nfree := 0
	for d := 0; d < dirCount; d++ {
		dir := mesh.Dir(d)
		if a.dirOwner[d] < 0 && ns.HasArc(dir) {
			a.free[nfree] = dir
			nfree++
		}
	}
	if deflect == DeflectRandom && nfree > 1 {
		rng.Shuffle(nfree, func(x, y int) {
			a.free[x], a.free[y] = a.free[y], a.free[x]
		})
	}
	next := 0
	for i := range out {
		if out[i] != mesh.NoDir {
			continue
		}
		// next < nfree always holds: a node never carries more packets
		// than its degree (enforced at injection and preserved by the
		// one-packet-per-arc invariant).
		out[i] = a.free[next]
		next++
	}
}

// AssignSinglePass fills out like Assign but without augmenting paths: each
// packet, in priority order, takes the first free good arc or is deflected.
// The result still satisfies Definition 6 (a taken arc was taken by a
// packet advancing through it) and, with restricted packets first,
// Definition 18 — but it does not maximize the number of advancing packets,
// which is exactly what the augmenting version adds. Kept as the ablation
// baseline for the matching machinery (see experiment E15).
func (a *Assigner) AssignSinglePass(ns *sim.NodeState, out []mesh.Dir, order []int, deflect DeflectRule, rng *rand.Rand) {
	dirCount := ns.Mesh.DirCount()
	for d := 0; d < dirCount; d++ {
		a.dirOwner[d] = -1
	}
	for i := range out {
		out[i] = mesh.NoDir
	}
	for _, i := range order {
		for _, g := range ns.Info(i).Good() {
			if a.dirOwner[g] < 0 {
				a.dirOwner[g] = i
				out[i] = g
				break
			}
		}
	}
	nfree := 0
	for d := 0; d < dirCount; d++ {
		dir := mesh.Dir(d)
		if a.dirOwner[d] < 0 && ns.HasArc(dir) {
			a.free[nfree] = dir
			nfree++
		}
	}
	if deflect == DeflectRandom && nfree > 1 {
		rng.Shuffle(nfree, func(x, y int) {
			a.free[x], a.free[y] = a.free[y], a.free[x]
		})
	}
	next := 0
	for i := range out {
		if out[i] != mesh.NoDir {
			continue
		}
		out[i] = a.free[next]
		next++
	}
}

// OrderBuf is a reusable priority-order buffer for policies.
type OrderBuf struct {
	order []int
}

// Reset returns the buffer resized to n, filled with 0..n-1.
func (b *OrderBuf) Reset(n int) []int {
	if cap(b.order) < n {
		b.order = make([]int, n)
	}
	b.order = b.order[:n]
	for i := range b.order {
		b.order[i] = i
	}
	return b.order
}
