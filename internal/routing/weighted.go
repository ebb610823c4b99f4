package routing

import (
	"fmt"
	"math"

	"hotpotato/internal/sim"
)

// Weights parameterizes the weighted greedy policy family searched by
// internal/policylab/search: a packet's priority score is the weighted sum
// of the decision features every conflict record captures (age,
// distance-to-target, restriction status, deflection count). Higher score
// advances first; all-zero weights degenerate to random priority.
type Weights struct {
	// Age weights the packet's age in steps (Time - InjectedAt). Positive
	// favors older packets (the oldest-first rule is Age=1, rest 0).
	Age float64
	// Dist weights the packet's distance to its destination. Positive favors
	// farther packets (farthest-first is Dist=1), negative favors nearer.
	Dist float64
	// Restrict weights restriction status (1 if the packet has exactly one
	// good direction, else 0). A large positive value approximates the
	// paper's restricted-priority rule.
	Restrict float64
	// Deflect weights the packet's deflection count. Positive compensates
	// packets that already lost conflicts.
	Deflect float64
}

// weightScale converts float weights to integer key arithmetic: keys are
// fixed-point with 10 fractional bits, computed once per packet per node. Weights are quantized at construction, so two Weights
// within 1/2048 of each other are the same policy.
const weightScale = 1024

// String renders the weights in the spec parameter syntax (sorted keys),
// matching what internal/spec produces for "weighted:...".
func (w Weights) String() string {
	return fmt.Sprintf("age=%g,defl=%g,dist=%g,restrict=%g", w.Age, w.Deflect, w.Dist, w.Restrict)
}

// NewWeighted returns the weighted-priority greedy policy for w. name is the
// policy's display name (used in snapshots to pair checkpoints with the
// policy that wrote them); the empty string defaults to
// "weighted:<params>". Ties — exact score equality after fixed-point
// quantization — are broken uniformly at random, and deflected packets take
// uniformly random leftover arcs, exactly like the other randomized greedy
// policies, so the all-zero family member is NewRandomGreedy in disguise.
func NewWeighted(name string, w Weights) sim.Policy {
	if name == "" {
		name = "weighted:" + w.String()
	}
	wAge := int(math.Round(w.Age * weightScale))
	wDist := int(math.Round(w.Dist * weightScale))
	wRestrict := int(math.Round(w.Restrict * weightScale))
	wDeflect := int(math.Round(w.Deflect * weightScale))
	return NewCustom(name, func(s *sim.Site, p *sim.Packet, good uint16) sim.Key {
		score := wAge * (s.Time - p.InjectedAt)
		score += wDist * s.Mesh.Dist(p.Node, p.Dst)
		if sim.Restricted(good) {
			score += wRestrict
		}
		score += wDeflect * p.Deflections
		return sim.Key{Major: -score} // lower keys advance first; higher score wins
	}, true, DeflectRandom)
}
