package core

import (
	"math/rand"
	"testing"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// oracleRank is restrictedRank as it was written before keys: on the
// NodeState's PacketInfo.
func oracleRank(ns *sim.NodeState, i int, typeAFirst bool) int {
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

// rankCheckPolicy routes with a priority policy through its Route on a
// NodeState — the path a wrapping policy takes — and checks at every node
// that the policy's key orders the node's packets exactly as rank does.
type rankCheckPolicy struct {
	sim.Policy
	t      *testing.T
	key    sim.KeyFunc
	rank   func(ns *sim.NodeState, i int) int
	checks int
}

func (c *rankCheckPolicy) Route(ns *sim.NodeState, out []mesh.Dir, rng *rand.Rand) {
	keys := make([]sim.Key, len(ns.Packets))
	for i, p := range ns.Packets {
		good := uint16(0)
		for _, d := range ns.Info(i).Good() {
			good |= 1 << d
		}
		keys[i] = c.key(&ns.Site, p, good)
	}
	for i, ki := range keys {
		for j, kj := range keys {
			keyLess := ki.Major < kj.Major || ki.Major == kj.Major && ki.Minor < kj.Minor
			if rankLess := c.rank(ns, i) < c.rank(ns, j); keyLess != rankLess {
				c.t.Errorf("step %d node %d: packets %d, %d: key order %v, rank order %v",
					ns.Time, ns.Node, ns.Packets[i].ID, ns.Packets[j].ID, keyLess, rankLess)
			}
			c.checks++
		}
	}
	c.Policy.Route(ns, out, rng)
}

// TestRankLessEquivalence runs each of this package's rank-based policies
// twice on identical workloads and seeds: once routed by the kernel, once
// through its NodeState Route with every node's key order checked against
// the rank as it was written before keys, on PacketInfo (less(i, j) =
// rank(i) < rank(j)). The per-step engine state hashes must match exactly,
// and the key must never order two packets differently from the rank.
func TestRankLessEquivalence(t *testing.T) {
	cases := []struct {
		rankBased func() sim.Policy
		rank      func(ns *sim.NodeState, i int) int
	}{
		{
			rankBased: NewRestrictedPriority,
			rank:      func(ns *sim.NodeState, i int) int { return oracleRank(ns, i, true) },
		},
		{
			rankBased: NewRestrictedPriorityTypeBFirst,
			rank:      func(ns *sim.NodeState, i int) int { return oracleRank(ns, i, false) },
		},
		{
			rankBased: func() sim.Policy { return NewFewestGoodFirst() },
			rank: func(ns *sim.NodeState, i int) int {
				r := 2 * ns.Info(i).GoodCount
				if !ns.Packets[i].AdvancedPrev {
					r++
				}
				return r
			},
		},
	}
	m := mesh.MustNew(2, 8)
	for _, tc := range cases {
		pol := tc.rankBased()
		t.Run(pol.Name(), func(t *testing.T) {
			checked := &rankCheckPolicy{Policy: tc.rankBased(), t: t, key: pol.(*sim.PriorityPolicy).Priority().Key, rank: tc.rank}
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				packets, err := workload.UniformRandom(m, 60, rng)
				if err != nil {
					t.Fatal(err)
				}
				opts := sim.Options{Seed: seed + 100, Validation: sim.ValidateGreedy, MaxSteps: 200000}
				a, err := sim.New(m, tc.rankBased(), clonePkts(packets), opts)
				if err != nil {
					t.Fatal(err)
				}
				b, err := sim.New(m, checked, clonePkts(packets), opts)
				if err != nil {
					t.Fatal(err)
				}
				for !a.Done() && !a.Livelocked() {
					if err := a.Step(); err != nil {
						t.Fatal(err)
					}
					if err := b.Step(); err != nil {
						t.Fatal(err)
					}
					if ha, hb := a.StateHash(), b.StateHash(); ha != hb {
						t.Fatalf("seed %d: state hash diverged at step %d: %#x vs %#x", seed, a.Time(), ha, hb)
					}
				}
				if b.Done() != a.Done() {
					t.Fatalf("seed %d: termination diverged", seed)
				}
			}
			if checked.checks == 0 {
				t.Fatal("no node held two packets; the test proved nothing")
			}
		})
	}
}

func clonePkts(pkts []*sim.Packet) []*sim.Packet {
	out := make([]*sim.Packet, len(pkts))
	for i, p := range pkts {
		c := *p
		out[i] = &c
	}
	return out
}
