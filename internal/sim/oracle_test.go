package sim_test

// This file is the differential oracle of FuzzRouteNode: the priority
// matching as it ran before the kernel took it over — a policy-side Route on
// a NodeState, with an Assigner computing augmenting paths over each
// packet's PacketInfo.Good list — kept verbatim, together with the
// validation it was checked by.

import (
	"fmt"
	"math/rand"
	"slices"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// lessFunc orders packet indices within a node state; i before j means i has
// higher priority for advancing. A nil lessFunc keeps the incoming order.
type lessFunc func(ns *sim.NodeState, i, j int) bool

// rankFunc assigns a priority rank to a packet index; lower ranks advance
// first. Equivalent to less(i, j) = rank(i) < rank(j), but evaluated once
// per packet instead of twice per comparison.
type rankFunc func(ns *sim.NodeState, i int) int

// matchingPolicy is the common shape of all priority-matching policies.
type matchingPolicy struct {
	name          string
	deterministic bool
	shuffle       bool // randomize order before sorting (random tie-break)
	singlePass    bool // skip augmentation (ablation variant)
	less          lessFunc
	rank          rankFunc // non-nil takes precedence over less
	deflect       DeflectRule

	assigner Assigner
	buf      OrderBuf
	keys     [2 * mesh.MaxDim]int
}

var _ sim.Policy = (*matchingPolicy)(nil)
var _ sim.ClonablePolicy = (*matchingPolicy)(nil)

// Name implements sim.Policy.
func (p *matchingPolicy) Name() string { return p.name }

// Clone implements sim.ClonablePolicy: identical configuration, fresh
// scratch, so clones can route concurrently (the less functions used by
// the shipped policies are stateless).
func (p *matchingPolicy) Clone() sim.Policy {
	return &matchingPolicy{
		name:          p.name,
		deterministic: p.deterministic,
		shuffle:       p.shuffle,
		singlePass:    p.singlePass,
		less:          p.less,
		rank:          p.rank,
		deflect:       p.deflect,
	}
}

// Deterministic implements sim.Policy.
func (p *matchingPolicy) Deterministic() bool { return p.deterministic }

// Route implements sim.Policy.
func (p *matchingPolicy) Route(ns *sim.NodeState, out []mesh.Dir, rng *rand.Rand) {
	if len(ns.Packets) == 1 {
		// The dominant case under light and moderate load: a lone packet
		// needs no priority order and no matching — advance along a
		// (uniformly random, when shuffling) good arc, or deflect onto a
		// (uniformly random) surviving arc. The choice has the same
		// distribution the full machinery produces.
		p.routeSingle(ns, out, rng)
		return
	}
	order := p.buf.Reset(len(ns.Packets))
	if p.shuffle {
		if len(order) > 1 {
			rng.Shuffle(len(order), func(x, y int) {
				order[x], order[y] = order[y], order[x]
			})
		}
		// Also randomize each packet's good-arc preference. With a fixed
		// axis order the matching is deterministic for a lone packet, which
		// matters under link failures: a packet whose only good arc at its
		// current node is down gets deflected to a neighbor, and from there
		// a fixed preference walks it straight back — a two-node loop no
		// amount of priority shuffling breaks. A random good arc lets it
		// round the failed link instead.
		for i := range ns.Packets {
			g := ns.Info(i).Good()
			if len(g) > 1 {
				rng.Shuffle(len(g), func(x, y int) { g[x], g[y] = g[y], g[x] })
			}
		}
	}
	if p.rank != nil {
		// Evaluate the rank once per packet and insertion-sort the (tiny —
		// at most the node degree) order stably by it.
		keys := p.keys[:len(order)]
		for x, i := range order {
			keys[x] = p.rank(ns, i)
		}
		for x := 1; x < len(order); x++ {
			ox, kx := order[x], keys[x]
			y := x - 1
			for y >= 0 && keys[y] > kx {
				order[y+1], keys[y+1] = order[y], keys[y]
				y--
			}
			order[y+1], keys[y+1] = ox, kx
		}
	} else if p.less != nil {
		// slices.SortStableFunc avoids the reflection-based swapper that
		// sort.SliceStable allocates on every node of every step.
		slices.SortStableFunc(order, func(x, y int) int {
			switch {
			case p.less(ns, x, y):
				return -1
			case p.less(ns, y, x):
				return 1
			default:
				return 0
			}
		})
	}
	if p.singlePass {
		p.assigner.AssignSinglePass(ns, out, order, p.deflect, rng)
		return
	}
	p.assigner.Assign(ns, out, order, p.deflect, rng)
}

// routeSingle routes a node holding exactly one packet.
func (p *matchingPolicy) routeSingle(ns *sim.NodeState, out []mesh.Dir, rng *rand.Rand) {
	g := ns.Info(0).Good()
	if n := len(g); n > 0 {
		if p.shuffle && n > 1 {
			out[0] = g[rng.Intn(n)]
		} else {
			out[0] = g[0]
		}
		return
	}
	// No surviving good arc: a forced deflection over the existing arcs.
	a := &p.assigner
	dirCount := ns.Mesh.DirCount()
	nfree := 0
	for d := 0; d < dirCount; d++ {
		if ns.HasArc(mesh.Dir(d)) {
			a.free[nfree] = mesh.Dir(d)
			nfree++
		}
	}
	if nfree == 0 {
		return // impossible in a legal configuration; the engine reports it
	}
	if p.deflect == DeflectRandom && nfree > 1 {
		out[0] = a.free[rng.Intn(nfree)]
	} else {
		out[0] = a.free[0]
	}
}

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

// oracleValidate is NodeRouter.validate as it ran on the NodeState: model
// legality, then greediness and restricted preference, scanning each
// packet's Good list in the order the policy left it.
func oracleValidate(ns *sim.NodeState, out []mesh.Dir, level sim.ValidationLevel) error {
	dirCount := ns.Mesh.DirCount()
	dirOwner := make([]int, dirCount)
	for i := range dirOwner {
		dirOwner[i] = -1
	}
	for i, dir := range out {
		p := ns.Packets[i]
		if dir < 0 || int(dir) >= dirCount {
			return fmt.Errorf("%w: step %d node %d packet %d (dir %d)",
				sim.ErrUnassigned, ns.Time, ns.Node, p.ID, dir)
		}
		if !ns.Mesh.HasArc(ns.Node, dir) {
			return fmt.Errorf("%w: step %d node %d packet %d via %v",
				sim.ErrOffMesh, ns.Time, ns.Node, p.ID, dir)
		}
		if prev := dirOwner[dir]; prev >= 0 {
			return fmt.Errorf("%w: step %d node %d packets %d and %d both via %v",
				sim.ErrLinkConflict, ns.Time, ns.Node, ns.Packets[prev].ID, p.ID, dir)
		}
		dirOwner[dir] = i
	}
	if level < sim.ValidateGreedy {
		return nil
	}
	for i, dir := range out {
		pi := ns.Info(i)
		if slices.Contains(pi.Good(), dir) {
			continue // advancing
		}
		for _, g := range pi.Good() {
			j := dirOwner[g]
			if j < 0 || !slices.Contains(ns.Info(j).Good(), g) {
				return fmt.Errorf("%w: step %d node %d packet %d deflected with free good arc %v",
					sim.ErrNotGreedy, ns.Time, ns.Node, ns.Packets[i].ID, g)
			}
			if level >= sim.ValidateRestricted && pi.Restricted && !ns.Info(j).Restricted {
				return fmt.Errorf("%w: step %d node %d packet %d deflected by non-restricted packet %d",
					sim.ErrNotRestrictedPreferring, ns.Time, ns.Node, ns.Packets[i].ID, ns.Packets[j].ID)
			}
		}
	}
	return nil
}
