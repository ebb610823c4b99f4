package sim

import (
	"math/bits"
	"math/rand"

	"hotpotato/internal/mesh"
)

// maxDeg is the largest node degree. A node never holds more packets than
// its out-degree, so every per-packet array of a routed node has this many
// slots, and a mask of arcs fits a uint16.
const maxDeg = 2 * mesh.MaxDim

// Key is a packet's priority at a node: packets are matched in ascending key
// order, Major first and Minor on a tie. Packets with equal keys keep their
// queue order (or, for a shuffled policy, a uniformly random one).
type Key struct{ Major, Minor int }

func (k Key) less(o Key) bool { return k.Major < o.Major || k.Major == o.Major && k.Minor < o.Minor }

// Site is where and when a node is routed: what a priority key may read
// besides the packet and its good directions.
type Site struct {
	// Mesh is the network topology the node routes against: the engine's
	// table. Without faults that is the mesh's shared table; with a fault
	// model installed it is the failure overlay's masked copy, whose
	// connectivity methods (HasArc, ArcMask, GoodMask) reflect the surviving
	// arcs while geometry (Dist, coordinates) stays that of the intact mesh
	// — a bufferless router knows its live ports but has no global failure
	// map.
	Mesh *mesh.Tables
	// Node is the node being routed.
	Node mesh.NodeID
	// Time is the current step index.
	Time int
}

// KeyFunc returns the priority key of packet p at site s, given its good
// directions as a mask (bit d set iff Dir(d) is good; see
// mesh.Tables.DispGood). It must be a pure function of its arguments: the
// kernel evaluates it once per packet of every node with several packets,
// from whichever goroutine routes the node.
type KeyFunc func(s *Site, p *Packet, good uint16) Key

// Restricted reports whether a packet whose good directions are the mask
// good is restricted: it has exactly one good direction (Section 4.1).
func Restricted(good uint16) bool { return good != 0 && good&(good-1) == 0 }

// TypeA reports whether p, whose good directions are the mask good, is a
// restricted packet of type A (see PacketInfo.TypeA).
func TypeA(p *Packet, good uint16) bool {
	return Restricted(good) && p.RestrictedPrev && p.AdvancedPrev
}

// Priority describes a priority-matching greedy policy as data the routing
// kernel executes. At a node with several packets the kernel
//
//  1. orders the packets: shuffled uniformly first when Shuffle is set, then
//     stably sorted by Key (a nil Key keeps the order);
//  2. matches them to good arcs in that order: by augmenting paths, a
//     maximum matching (Kuhn's algorithm) in which a matched packet can be
//     moved to another of its good arcs but never unmatched; or, with
//     SinglePass, each packet taking its first free good arc;
//  3. deflects the unmatched packets, in queue order, onto the leftover
//     arcs: in ascending direction order, or in a uniformly random order
//     when RandomDeflect is set.
//
// With Shuffle set, a packet with several good directions also tries them in
// a uniformly random order rather than ascending. With a fixed axis order a
// packet whose only good arc at its current node is down is deflected to a
// neighbor and from there walks straight back — a two-node loop no amount
// of priority shuffling breaks. A node with one packet skips ordering and
// matching: the packet takes a good arc (a uniformly random one when Shuffle
// is set) or, with none, a leftover arc by the deflection rule; the choice
// has the distribution the full machinery produces.
//
// The construction gives the two structural guarantees the paper's
// definitions ask for:
//
//   - Definition 6 (greediness): the matching is maximal, so an unmatched
//     (deflected) packet has no free good arc, and every leftover arc handed
//     to deflected packets is bad for all of them.
//   - Definition 18 (preferring restricted packets): a restricted packet has
//     a single good arc, so an augmenting path can never reroute it; if the
//     key puts restricted packets first, their good arcs are owned by
//     restricted packets before any other packet is considered, and can
//     never be taken over later.
//
// Running augmentation for every packet also yields a maximum-cardinality
// matching, the "maximize the number of advancing packets" requirement of
// Section 5. SinglePass drops it and exists as the ablation baseline.
type Priority struct {
	Key           KeyFunc
	Shuffle       bool
	RandomDeflect bool
	SinglePass    bool
}

// PriorityPolicy is the Policy a Priority describes. NodeRouter routes it
// itself, with no interface call and no NodeState or PacketInfo: every
// shipped greedy policy is one.
type PriorityPolicy struct {
	name string
	pr   Priority
}

var _ ClonablePolicy = (*PriorityPolicy)(nil)

// NewPriorityPolicy returns the policy pr describes under the given name.
func NewPriorityPolicy(name string, pr Priority) *PriorityPolicy {
	return &PriorityPolicy{name: name, pr: pr}
}

// Name implements Policy.
func (p *PriorityPolicy) Name() string { return p.name }

// Priority returns the policy's description.
func (p *PriorityPolicy) Priority() Priority { return p.pr }

// Deterministic implements Policy: only shuffling and random deflection
// draw randomness.
func (p *PriorityPolicy) Deterministic() bool { return !p.pr.Shuffle && !p.pr.RandomDeflect }

// Clone implements ClonablePolicy. The policy holds no scratch (the router
// does), so every shard may share it.
func (p *PriorityPolicy) Clone() Policy { return p }

// Route implements Policy for a caller that holds a NodeState: a wrapper
// policy that delegates to this one. It draws the same randomness and
// returns the same assignment as the kernel's own path.
func (p *PriorityPolicy) Route(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
	var m matcher
	for i := range ns.Packets {
		m.good[i] = ns.infos[i].good
	}
	m.route(&p.pr, &ns.Site, ns.Packets, rng)
	copy(out, m.out[:len(ns.Packets)])
}

// matcher is the scratch of one priority-matched node, in fixed arrays:
// routing a node allocates nothing and touches only the slots it uses.
type matcher struct {
	good  [maxDeg]uint16   // good-direction mask per packet: the input
	out   [maxDeg]mesh.Dir // direction per packet: the output
	key   [maxDeg]Key
	order [maxDeg]uint8 // packet indices, highest priority first
	owner [maxDeg]uint8 // the packet on each taken arc
	pref  [maxDeg][maxDeg]mesh.Dir
	free  [maxDeg]mesh.Dir

	listed  uint16 // bit i: packet i tries its good arcs in pref[i]'s order
	taken   uint16 // arcs carrying a matched packet
	visited uint16 // arcs explored by the current augmenting search
}

// route fills m.out for the packets at site s, whose good masks are in
// m.good, as pr describes.
func (m *matcher) route(pr *Priority, s *Site, pkts []*Packet, rng *rand.Rand) {
	n := len(pkts)
	if n == 1 {
		m.out[0] = m.single(pr, s, rng)
		return
	}
	order := m.order[:n]
	for i := range order {
		order[i] = uint8(i)
	}
	m.listed = 0
	if pr.Shuffle {
		rng.Shuffle(n, func(x, y int) { order[x], order[y] = order[y], order[x] })
		for i, good := range m.good[:n] {
			if good&(good-1) == 0 {
				continue
			}
			pref := m.pref[i][:listDirs(good, &m.pref[i])]
			rng.Shuffle(len(pref), func(x, y int) { pref[x], pref[y] = pref[y], pref[x] })
			m.listed |= 1 << i
		}
	}
	if pr.Key != nil {
		keys := m.key[:n]
		for x, i := range order {
			keys[x] = pr.Key(s, pkts[i], m.good[i])
		}
		for x := 1; x < n; x++ { // stable insertion sort: n is at most the degree
			ox, kx := order[x], keys[x]
			y := x - 1
			for ; y >= 0 && kx.less(keys[y]); y-- {
				order[y+1], keys[y+1] = order[y], keys[y]
			}
			order[y+1], keys[y+1] = ox, kx
		}
	}
	m.taken = 0
	for i := range m.out[:n] {
		m.out[i] = mesh.NoDir
	}
	for _, i := range order {
		if pr.SinglePass {
			m.takeFirst(int(i))
		} else {
			m.visited = 0
			m.augment(int(i))
		}
	}

	// Deflect the unmatched packets. The leftover arcs are shuffled whenever
	// there are two, deflected packets or not: the draw is part of the
	// policy's stream.
	free := s.Mesh.ArcMask(s.Node) &^ m.taken
	if pr.RandomDeflect && free&(free-1) != 0 {
		nfree := listDirs(free, &m.free)
		rng.Shuffle(nfree, func(x, y int) { m.free[x], m.free[y] = m.free[y], m.free[x] })
		next := 0
		for i := range m.out[:n] {
			if m.out[i] == mesh.NoDir && next < nfree {
				m.out[i] = m.free[next]
				next++
			}
		}
		return
	}
	for i := range m.out[:n] {
		if m.out[i] == mesh.NoDir && free != 0 {
			m.out[i] = mesh.Dir(bits.TrailingZeros16(free))
			free &= free - 1
		}
	}
}

// single routes a node holding one packet.
func (m *matcher) single(pr *Priority, s *Site, rng *rand.Rand) mesh.Dir {
	choices, random := m.good[0], pr.Shuffle
	if choices == 0 { // no surviving good arc: a forced deflection
		choices, random = s.Mesh.ArcMask(s.Node), pr.RandomDeflect
	}
	if choices == 0 {
		return mesh.NoDir // impossible in a legal configuration; the router reports it
	}
	if random && choices&(choices-1) != 0 {
		for k := rng.Intn(bits.OnesCount16(choices)); k > 0; k-- {
			choices &= choices - 1
		}
	}
	return mesh.Dir(bits.TrailingZeros16(choices))
}

// augment looks for an augmenting path that matches packet i to one of its
// good arcs, possibly moving matched packets to other good arcs of theirs.
// It tries the arcs in packet i's preference order and skips those the
// current search has explored already.
func (m *matcher) augment(i int) bool {
	listed, good := m.listed>>i&1 != 0, m.good[i]
	for k := 0; good != 0; k++ {
		d := mesh.Dir(bits.TrailingZeros16(good))
		if listed {
			d = m.pref[i][k]
		}
		good &= good - 1 // one arc fewer to try, whichever it was
		bit := uint16(1) << d
		if m.visited&bit != 0 {
			continue
		}
		m.visited |= bit
		if m.taken&bit != 0 && !m.augment(int(m.owner[d])) {
			continue
		}
		m.taken |= bit
		m.owner[d] = uint8(i)
		m.out[i] = d
		return true
	}
	return false
}

// takeFirst matches packet i to its first free good arc in its preference
// order, if any.
func (m *matcher) takeFirst(i int) {
	listed, good := m.listed>>i&1 != 0, m.good[i]
	for k := 0; good != 0; k++ {
		d := mesh.Dir(bits.TrailingZeros16(good))
		if listed {
			d = m.pref[i][k]
		}
		good &= good - 1
		if m.taken>>d&1 == 0 {
			m.taken |= 1 << d
			m.out[i] = d
			return
		}
	}
}

// listDirs writes the directions of mask into dirs in ascending order and
// returns their count.
func listDirs(mask uint16, dirs *[maxDeg]mesh.Dir) int {
	n := 0
	for ; mask != 0; mask &= mask - 1 {
		dirs[n] = mesh.Dir(bits.TrailingZeros16(mask))
		n++
	}
	return n
}
