// Package structured implements the kind of *structured* hot-potato
// routing the paper's introduction argues against: algorithms that enforce
// "good behavior" by sending packets along prespecified detours, gaining
// worst-case guarantees at the cost of ignoring the actual instance.
//
// The comparator here is a Valiant-style two-phase scheme adapted to the
// hot-potato constraint: every packet first travels greedily to a randomly
// chosen intermediate node (phase 1), and only then greedily to its real
// destination (phase 2). Randomized interchange smooths worst-case
// congestion — the classical argument — but a packet that originates next
// to its destination is still dragged across the network, which is exactly
// the paper's "overstructuring" critique (Section 1): the algorithm is not
// sensitive to the instance's locality or to the total load.
//
// The policy is a legal hot-potato algorithm (every packet moves every
// step) but deliberately NOT greedy with respect to real destinations; run
// it under sim.ValidateBasic.
package structured

import (
	"math/rand"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// twoPhase routes packets via random intermediate destinations.
//
// Note one model interaction: the engine absorbs a packet the moment it
// stands on its *real* destination, so a phase-1 packet that happens to
// pass through its destination is delivered opportunistically. This only
// softens the detour cost; the overstructuring effect remains dominant.
type twoPhase struct {
	intermediate map[int]mesh.NodeID // packet ID -> phase-1 target; deleted on phase 2
}

var _ sim.Policy = (*twoPhase)(nil)

// NewTwoPhase returns the Valiant-style two-phase hot-potato policy.
// Conceptually the intermediate destination rides in the packet header;
// the implementation keeps it keyed by packet ID (assigned lazily from the
// engine RNG on first sight, so runs stay deterministic under a seed).
func NewTwoPhase() sim.Policy {
	return &twoPhase{intermediate: make(map[int]mesh.NodeID)}
}

// Name implements sim.Policy.
func (p *twoPhase) Name() string { return "structured-two-phase" }

// Deterministic implements sim.Policy: intermediate targets come from the
// engine RNG.
func (p *twoPhase) Deterministic() bool { return false }

// target returns the node the packet currently steers toward: its
// intermediate target during phase 1, its real destination afterwards.
func (p *twoPhase) target(ns *sim.NodeState, pk *sim.Packet, rng *rand.Rand) mesh.NodeID {
	if mid, ok := p.intermediate[pk.ID]; ok {
		if pk.Node != mid {
			return mid
		}
		// Phase 1 complete.
		delete(p.intermediate, pk.ID)
		return pk.Dst
	}
	if pk.Hops == 0 && pk.Node != pk.Dst {
		// First sight: draw the intermediate target.
		mid := mesh.NodeID(rng.Intn(ns.Mesh.Size()))
		if mid != pk.Node {
			p.intermediate[pk.ID] = mid
			return mid
		}
	}
	return pk.Dst
}

// Route implements sim.Policy: greedy priority matching toward the current
// (virtual) targets.
func (p *twoPhase) Route(ns *sim.NodeState, out []mesh.Dir, rng *rand.Rand) {
	// Compute per-packet virtual targets, then assign arcs with the same
	// machinery as the greedy policies, but against virtual good sets.
	targets := make([]mesh.NodeID, len(ns.Packets))
	for i, pk := range ns.Packets {
		targets[i] = p.target(ns, pk, rng)
	}

	// Local maximum matching toward virtual targets (hand-rolled because
	// the kernel's priority matching uses real-destination good sets).
	dirCount := ns.Mesh.DirCount()
	owner := make([]int, dirCount)
	for d := range owner {
		owner[d] = -1
	}
	assigned := make([]mesh.Dir, len(ns.Packets))
	for i := range assigned {
		assigned[i] = mesh.NoDir
	}
	var goodBuf [2 * mesh.MaxDim]mesh.Dir
	var visited [2 * mesh.MaxDim]bool
	var augment func(i int) bool
	augment = func(i int) bool {
		for _, g := range ns.Mesh.GoodDirs(ns.Packets[i].Node, targets[i], goodBuf[:0]) {
			if targets[i] == ns.Packets[i].Node {
				break
			}
			if visited[g] {
				continue
			}
			visited[g] = true
			j := owner[g]
			if j < 0 || augment(j) {
				owner[g] = i
				assigned[i] = g
				return true
			}
		}
		return false
	}
	idx := rng.Perm(len(ns.Packets))
	for _, i := range idx {
		for d := 0; d < dirCount; d++ {
			visited[d] = false
		}
		augment(i)
	}
	// Deflections onto leftover arcs.
	var free []mesh.Dir
	for d := 0; d < dirCount; d++ {
		dir := mesh.Dir(d)
		if owner[d] < 0 && ns.HasArc(dir) {
			free = append(free, dir)
		}
	}
	rng.Shuffle(len(free), func(x, y int) { free[x], free[y] = free[y], free[x] })
	next := 0
	for i := range assigned {
		if assigned[i] == mesh.NoDir {
			assigned[i] = free[next]
			next++
		}
	}
	copy(out, assigned)
}
