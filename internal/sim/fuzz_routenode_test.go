package sim_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"hotpotato/internal/core"
	"hotpotato/internal/mesh"
	"hotpotato/internal/routing"
	"hotpotato/internal/sim"
)

// routeNodePair is one shipped policy constructor and its pre-kernel
// oracle: the same priority as a rank or less function on the NodeState.
type routeNodePair struct {
	kernel func() sim.Policy
	oracle func() *matchingPolicy
}

// oracleRestrictedRank is core's restricted rank on the NodeState.
func oracleRestrictedRank(ns *sim.NodeState, i int, typeAFirst bool) int {
	pi := ns.Info(i)
	switch {
	case pi.Restricted && pi.TypeA == typeAFirst:
		return 0
	case pi.Restricted:
		return 1
	default:
		return 2
	}
}

// oracleWeighted is routing.NewWeighted's rank on the NodeState.
func oracleWeighted(w routing.Weights) *matchingPolicy {
	wAge := int(math.Round(w.Age * 1024))
	wDist := int(math.Round(w.Dist * 1024))
	wRestrict := int(math.Round(w.Restrict * 1024))
	wDeflect := int(math.Round(w.Deflect * 1024))
	return &matchingPolicy{shuffle: true, deflect: DeflectRandom, rank: func(ns *sim.NodeState, i int) int {
		p := ns.Packets[i]
		score := wAge * (ns.Time - p.InjectedAt)
		score += wDist * ns.Mesh.Dist(p.Node, p.Dst)
		if ns.Info(i).Restricted {
			score += wRestrict
		}
		score += wDeflect * p.Deflections
		return -score
	}}
}

func routeNodePairs() []routeNodePair {
	idKey := func(_ *sim.Site, p *sim.Packet, _ uint16) sim.Key { return sim.Key{Major: p.ID} }
	idRank := func(ns *sim.NodeState, i int) int { return ns.Packets[i].ID }
	restrictedFirst := func(ns *sim.NodeState, i, j int) bool {
		ri, rj := 2, 2
		if ns.Info(i).Restricted {
			ri = 0
		}
		if ns.Info(j).Restricted {
			rj = 0
		}
		return ri < rj
	}
	w1 := routing.Weights{Age: 1, Restrict: 2}
	w2 := routing.Weights{Age: 0.5, Dist: -1, Deflect: 0.25}
	return []routeNodePair{
		{routing.NewRandomGreedy, func() *matchingPolicy {
			return &matchingPolicy{shuffle: true, deflect: DeflectRandom}
		}},
		{routing.NewFixedPriority, func() *matchingPolicy {
			return &matchingPolicy{deterministic: true, rank: idRank, deflect: DeflectFirstFit}
		}},
		{routing.NewDestOrderGreedy, func() *matchingPolicy {
			return &matchingPolicy{shuffle: true, deflect: DeflectRandom, rank: func(ns *sim.NodeState, i int) int {
				return ns.Mesh.SnakeRank(ns.Packets[i].Dst)
			}}
		}},
		{routing.NewOldestFirst, func() *matchingPolicy {
			return &matchingPolicy{shuffle: true, deflect: DeflectRandom, rank: func(ns *sim.NodeState, i int) int {
				return ns.Packets[i].InjectedAt
			}}
		}},
		{routing.NewClassPriority, func() *matchingPolicy {
			return &matchingPolicy{shuffle: true, deflect: DeflectRandom, less: func(ns *sim.NodeState, i, j int) bool {
				pi, pj := ns.Packets[i], ns.Packets[j]
				if pi.Class != pj.Class {
					return pi.Class > pj.Class
				}
				return pi.InjectedAt < pj.InjectedAt
			}}
		}},
		{routing.NewFarthestFirst, func() *matchingPolicy {
			return &matchingPolicy{shuffle: true, deflect: DeflectRandom, rank: func(ns *sim.NodeState, i int) int {
				return -ns.Mesh.Dist(ns.Packets[i].Node, ns.Packets[i].Dst)
			}}
		}},
		{routing.NewNearestFirst, func() *matchingPolicy {
			return &matchingPolicy{shuffle: true, deflect: DeflectRandom, rank: func(ns *sim.NodeState, i int) int {
				return ns.Mesh.Dist(ns.Packets[i].Node, ns.Packets[i].Dst)
			}}
		}},
		{func() sim.Policy { return routing.NewWeighted("", w1) }, func() *matchingPolicy { return oracleWeighted(w1) }},
		{func() sim.Policy { return routing.NewWeighted("", w2) }, func() *matchingPolicy { return oracleWeighted(w2) }},
		{func() sim.Policy { return routing.NewCustom("queue-order", nil, false, routing.DeflectFirstFit) }, func() *matchingPolicy {
			return &matchingPolicy{deterministic: true, deflect: DeflectFirstFit}
		}},
		{func() sim.Policy {
			return routing.NewCustomSinglePass("single-pass", func(_ *sim.Site, _ *sim.Packet, good uint16) sim.Key {
				if sim.Restricted(good) {
					return sim.Key{}
				}
				return sim.Key{Major: 2}
			}, true, routing.DeflectRandom)
		}, func() *matchingPolicy {
			return &matchingPolicy{shuffle: true, singlePass: true, less: restrictedFirst, deflect: DeflectRandom}
		}},
		{func() sim.Policy {
			return routing.NewCustomSinglePass("single-pass-det", idKey, false, routing.DeflectFirstFit)
		}, func() *matchingPolicy {
			return &matchingPolicy{deterministic: true, singlePass: true, rank: idRank, deflect: DeflectFirstFit}
		}},
		{core.NewRestrictedPriority, func() *matchingPolicy {
			return &matchingPolicy{shuffle: true, deflect: DeflectRandom, rank: func(ns *sim.NodeState, i int) int {
				return oracleRestrictedRank(ns, i, true)
			}}
		}},
		{core.NewRestrictedPriorityDeterministic, func() *matchingPolicy {
			return &matchingPolicy{deterministic: true, deflect: DeflectFirstFit, less: func(ns *sim.NodeState, i, j int) bool {
				ri, rj := oracleRestrictedRank(ns, i, true), oracleRestrictedRank(ns, j, true)
				if ri != rj {
					return ri < rj
				}
				return ns.Packets[i].ID < ns.Packets[j].ID
			}}
		}},
		{core.NewRestrictedPriorityTypeBFirst, func() *matchingPolicy {
			return &matchingPolicy{shuffle: true, deflect: DeflectRandom, rank: func(ns *sim.NodeState, i int) int {
				return oracleRestrictedRank(ns, i, false)
			}}
		}},
		{core.NewFewestGoodFirst, func() *matchingPolicy {
			return &matchingPolicy{shuffle: true, deflect: DeflectRandom, rank: func(ns *sim.NodeState, i int) int {
				r := 2 * ns.Info(i).GoodCount
				if !ns.Packets[i].AdvancedPrev {
					r++
				}
				return r
			}}
		}},
	}
}

// verdictPolicy routes with the oracle and records the verdict the
// pre-kernel validation gave its assignment at level.
type verdictPolicy struct {
	*matchingPolicy
	level   sim.ValidationLevel
	verdict error
}

func (v *verdictPolicy) Route(ns *sim.NodeState, out []mesh.Dir, rng *rand.Rand) {
	v.matchingPolicy.Route(ns, out, rng)
	if v.level > sim.ValidateOff {
		v.verdict = oracleValidate(ns, out, v.level)
	}
}

// nodeStatePolicy hides a *sim.PriorityPolicy behind Policy, so the router
// routes it through Route on a NodeState, the path a wrapping policy takes.
type nodeStatePolicy struct{ sim.Policy }

// fuzzBytes hands out the fuzz input a byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzRouteNode routes one byte-encoded node — dimension 1–4, mesh or torus,
// optionally with some of the node's links down, 1 to degree packets with
// random destinations, IDs and history flags — under a shipped policy and a
// validation level the input picks, three ways: by the kernel, by the
// policy's Route on a NodeState, and by the pre-kernel oracle. All three
// must assign the same directions, leave the tie-break stream in the same
// state, and reach the validation verdict the pre-kernel validation reached;
// the Move records must agree with good directions computed by coordinate
// arithmetic. The packets carry displacements (Packet.Locate); applying the
// kernel's moves must reach the per-node neighbours and leave every live
// packet carrying the good directions of its new node.
func FuzzRouteNode(f *testing.F) {
	pairs := routeNodePairs()
	f.Add([]byte{1, 1, 2, 0, 40, 0, 3, 0, 9, 3, 0, 2, 5, 1, 0, 11, 0, 0, 0, 0, 0, 0, 0, 0, 5, 7, 1, 2})
	f.Add([]byte{1, 0, 1, 0, 12, 0, 3, 0, 30, 7, 1, 0, 0, 0, 31, 2, 0, 0, 0, 99, 0, 3, 13, 3})
	f.Add([]byte{3, 1, 0, 0, 20, 0, 7, 0, 70, 0, 3, 0, 0, 0, 1, 1, 1, 0, 2, 5, 1, 1, 3, 2, 2, 0, 1})
	f.Add([]byte{0, 1, 3, 0, 2, 5, 1, 0, 4, 8, 3, 1, 1, 0, 1, 2, 2, 2, 1, 4, 0, 6, 12, 2})
	for i := range pairs {
		for lvl := 0; lvl < 4; lvl++ {
			f.Add([]byte{1, byte(i), 1, 0, byte(17 * i), 0, 3, byte(i), 41, 2, 1, 0, 3, 9, 1, 3, 2, 1, 3, 0, 7, 1, byte(i), 4, byte(i), byte(lvl)})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		dim := 1 + in.next()%4
		torus := in.next()%2 == 1
		side := 3 + in.next()%3
		var m *mesh.Mesh
		var err error
		if torus {
			m, err = mesh.NewTorus(dim, side)
		} else {
			m, err = mesh.New(dim, side)
		}
		if err != nil {
			t.Fatal(err)
		}
		node := mesh.NodeID((in.next()<<8 | in.next()) % m.Size())
		tab := m.Tables()
		if down := in.next(); down != 0 {
			o := mesh.NewOverlay(m)
			for d := 0; d < m.DirCount(); d++ {
				if down>>d&1 != 0 {
					o.FailLink(node, mesh.Dir(d))
				}
			}
			tab = o.Tables
		}
		deg := tab.Degree(node)
		if deg == 0 {
			return // no packet can sit at a node with no surviving arc
		}
		n := 1 + in.next()%deg
		pkts := make([]*sim.Packet, n)
		used := map[int]bool{}
		for i := range pkts {
			dst := mesh.NodeID((in.next()<<8 | in.next()) % m.Size())
			if dst == node {
				dst = (dst + 1) % mesh.NodeID(m.Size())
			}
			id := in.next() % 32
			for used[id] {
				id++
			}
			used[id] = true
			p := sim.NewPacket(id, node, dst)
			p.Locate(m.Tables())
			flags := in.next()
			p.AdvancedPrev, p.RestrictedPrev = flags&1 != 0, flags&2 != 0
			p.Class, p.InjectedAt, p.Deflections = flags>>2&3, flags>>4&7, in.next()%4
			pkts[i] = p
		}
		now := 8 + in.next()
		seed := int64(in.next()<<8 | in.next())
		pair := pairs[in.next()%len(pairs)]
		level := sim.ValidationLevel(in.next() % 4)

		kernel := sim.NewNodeRouter(tab, pair.kernel(), seed, level)
		wrapped := sim.NewNodeRouter(tab, nodeStatePolicy{pair.kernel()}, seed, level)
		orc := &verdictPolicy{matchingPolicy: pair.oracle(), level: level}
		oracle := sim.NewNodeRouter(tab, orc, seed, sim.ValidateOff)
		var movesK, movesW, movesO [16]sim.Move
		errK := kernel.RouteNode(node, now, pkts, movesK[:n])
		errW := wrapped.RouteNode(node, now, pkts, movesW[:n])
		if err := oracle.RouteNode(node, now, pkts, movesO[:n]); err != nil {
			t.Fatalf("oracle routed an illegal assignment: %v", err)
		}
		name := pair.kernel().Name()
		if !sameVerdict(errK, orc.verdict) || !sameVerdict(errW, orc.verdict) {
			t.Fatalf("%s at level %d: verdicts kernel %v, NodeState %v, oracle %v", name, level, errK, errW, orc.verdict)
		}
		if k, w, o := kernel.RNGProbe(), wrapped.RNGProbe(), oracle.RNGProbe(); k != o || w != o {
			t.Fatalf("%s: tie-break streams diverged: kernel %d, NodeState %d, oracle %d", name, k, w, o)
		}
		if errK != nil {
			return
		}
		for i, p := range pkts {
			if movesK[i] != movesO[i] || movesW[i] != movesO[i] {
				t.Fatalf("%s: packet %d: kernel %+v, NodeState %+v, oracle %+v", name, p.ID, movesK[i], movesW[i], movesO[i])
			}
			var good []mesh.Dir
			for _, d := range m.GoodDirs(node, p.Dst, nil) {
				if tab.HasArc(node, d) {
					good = append(good, d)
				}
			}
			mv := movesK[i]
			if mv.GoodCount != len(good) || mv.Advanced != slices.Contains(good, mv.Dir) ||
				mv.WasRestricted != (len(good) == 1) || mv.WasTypeA != (len(good) == 1 && p.RestrictedPrev && p.AdvancedPrev) {
				t.Fatalf("%s: packet %d: move %+v disagrees with good directions %v", name, p.ID, mv, good)
			}
		}
		// Apply the kernel's moves: each must reach the node the per-node
		// definition gives, and a packet still live must carry, after its
		// hop, the good directions the coordinate rows give at its new node.
		var tally sim.MoveTally
		tally.Apply(m.Tables(), movesK[:n], now+1)
		for i, p := range pkts {
			mv := &movesK[i]
			if want, _ := m.Neighbor(node, mv.Dir); mv.To != want {
				t.Fatalf("%s: packet %d via %v reached %d, want %d", name, p.ID, mv.Dir, mv.To, want)
			}
			if !mv.ArrivedNow {
				d := p.Disp()
				if got, want := tab.DispGood(p.Node, &d), tab.GoodMask(p.Node, p.Dst); got != want {
					t.Fatalf("%s: packet %d at %d after its hop: carried mask %b, GoodMask %b", name, p.ID, p.Node, got, want)
				}
			}
		}
	})
}

func sameVerdict(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}
