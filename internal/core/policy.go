// Package core implements the paper's primary contribution: the class of
// greedy hot-potato routing algorithms that prefer restricted packets
// (Section 4), its d-dimensional generalization (Section 5), and the
// potential-function machinery of Sections 3-4 — the exact per-packet
// potential of Figure 6 and per-step checkers for Property 8,
// Corollary 10, Lemma 12, Lemma 14 and Lemma 15.
package core

import (
	"math/bits"

	"hotpotato/internal/routing"
	"hotpotato/internal/sim"
)

// restrictedRank orders packets for the Section-4 class: restricted packets
// before non-restricted ones (Definition 18), and, within restricted,
// type A before type B by default, so that a type-A packet is never
// deflected and its spare-potential countdown is never interrupted.
func restrictedRank(p *sim.Packet, good uint16, typeAFirst bool) int {
	switch {
	case sim.Restricted(good) && sim.TypeA(p, good) == typeAFirst:
		return 0
	case sim.Restricted(good):
		return 1
	default:
		return 2
	}
}

// NewRestrictedPriority returns the paper's Section-4 policy for the
// two-dimensional mesh (it is well defined and greedy in any dimension): a
// greedy policy that prefers restricted packets, with type-A restricted
// packets served first, random tie-breaking and random deflections.
// Theorem 20 bounds its routing time on the n x n mesh by 8*sqrt(2)*n*sqrt(k).
func NewRestrictedPriority() sim.Policy {
	return routing.NewCustom("restricted-priority",
		func(_ *sim.Site, p *sim.Packet, good uint16) sim.Key {
			return sim.Key{Major: restrictedRank(p, good, true)}
		},
		true, routing.DeflectRandom)
}

// NewRestrictedPriorityDeterministic returns a fully deterministic member
// of the Section-4 class: ties are broken by packet ID and deflections are
// first-fit. Theorem 20 applies to the entire class, so even this
// determinized variant must terminate within the bound — no livelock is
// possible, which makes it a sharp end-to-end test of both the theorem and
// this implementation.
func NewRestrictedPriorityDeterministic() sim.Policy {
	return routing.NewCustom("restricted-priority-det",
		func(_ *sim.Site, p *sim.Packet, good uint16) sim.Key {
			return sim.Key{Major: restrictedRank(p, good, true), Minor: p.ID}
		},
		false, routing.DeflectFirstFit)
}

// NewRestrictedPriorityTypeBFirst returns the Section-4 class member that
// serves type-B restricted packets before type-A ones. It still prefers
// restricted packets (Definition 18 holds), but unlike the default variant
// it routinely deflects type-A packets, exercising the spare-potential
// switch rule (case 3(b) of the potential definition, Figure 6).
func NewRestrictedPriorityTypeBFirst() sim.Policy {
	return routing.NewCustom("restricted-priority-bfirst",
		func(_ *sim.Site, p *sim.Packet, good uint16) sim.Key {
			return sim.Key{Major: restrictedRank(p, good, false)}
		},
		true, routing.DeflectRandom)
}

// NewFewestGoodFirst returns the Section-5 d-dimensional policy class
// member: packets with fewer good directions get priority (generalizing
// restricted-first), packets that advanced in the previous step ("type A"
// of their class) are preferred within a class, and the number of advancing
// packets is maximized at every node (the extra requirement Section 5 adds
// to make the d-dimensional analysis go through; the kernel's
// priority-ordered maximum matching guarantees it).
func NewFewestGoodFirst() sim.Policy {
	return routing.NewCustom("fewest-good-first",
		func(_ *sim.Site, p *sim.Packet, good uint16) sim.Key {
			// Rank by good count, and within a class prefer packets that
			// advanced in the previous step (the d-dimensional "type A").
			r := 2 * bits.OnesCount16(good)
			if !p.AdvancedPrev {
				r++
			}
			return sim.Key{Major: r}
		},
		true, routing.DeflectRandom)
}
