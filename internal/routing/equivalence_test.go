package routing

import (
	"math"
	"math/rand"
	"testing"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// rankCheckPolicy routes with a priority policy through its Route on a
// NodeState — the path a wrapping policy takes — and checks at every node
// that the policy's key orders the node's packets exactly as rank, the
// policy's priority as it was written before keys, does.
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

// stepLockstep runs two engines in lockstep and compares their state hashes
// after every step, failing on the first divergence.
func stepLockstep(t *testing.T, a, b *sim.Engine) {
	t.Helper()
	for !a.Done() && !a.Livelocked() {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
		if ha, hb := a.StateHash(), b.StateHash(); ha != hb {
			t.Fatalf("state hash diverged at step %d: %#x vs %#x", a.Time(), ha, hb)
		}
	}
	if b.Done() != a.Done() || b.Livelocked() != a.Livelocked() {
		t.Fatalf("termination diverged: done %v/%v livelocked %v/%v",
			a.Done(), b.Done(), a.Livelocked(), b.Livelocked())
	}
}

// TestRankLessEquivalence runs every shipped rank-based policy twice on
// identical workloads and seeds: once routed by the kernel, once through
// its NodeState Route with every node's key order checked against the
// policy's rank as it was written before keys (less(i, j) = rank(i) <
// rank(j)). The two executions must match step for step, and the key must
// never order two packets differently from the rank.
func TestRankLessEquivalence(t *testing.T) {
	m := mesh.MustNew(2, 8)
	weighted := func(w Weights) func(ns *sim.NodeState, i int) int {
		wAge, wDist := int(math.Round(w.Age*weightScale)), int(math.Round(w.Dist*weightScale))
		wRestrict, wDeflect := int(math.Round(w.Restrict*weightScale)), int(math.Round(w.Deflect*weightScale))
		return func(ns *sim.NodeState, i int) int {
			p := ns.Packets[i]
			score := wAge*(ns.Time-p.InjectedAt) + wDist*ns.Mesh.Dist(p.Node, p.Dst) + wDeflect*p.Deflections
			if ns.Info(i).Restricted {
				score += wRestrict
			}
			return -score
		}
	}
	w1, w2 := Weights{Age: 1, Restrict: 2}, Weights{Age: 0.5, Dist: -1, Deflect: 0.25}
	cases := []struct {
		mk   func() sim.Policy
		rank func(ns *sim.NodeState, i int) int
	}{
		{NewFixedPriority, func(ns *sim.NodeState, i int) int { return ns.Packets[i].ID }},
		{NewDestOrderGreedy, func(ns *sim.NodeState, i int) int { return ns.Mesh.SnakeRank(ns.Packets[i].Dst) }},
		{NewOldestFirst, func(ns *sim.NodeState, i int) int { return ns.Packets[i].InjectedAt }},
		{NewFarthestFirst, func(ns *sim.NodeState, i int) int { return -ns.Mesh.Dist(ns.Packets[i].Node, ns.Packets[i].Dst) }},
		{NewNearestFirst, func(ns *sim.NodeState, i int) int { return ns.Mesh.Dist(ns.Packets[i].Node, ns.Packets[i].Dst) }},
		{func() sim.Policy { return NewWeighted("", w1) }, weighted(w1)},
		{func() sim.Policy { return NewWeighted("", w2) }, weighted(w2)},
	}
	for _, tc := range cases {
		pol := tc.mk()
		t.Run(pol.Name(), func(t *testing.T) {
			checked := &rankCheckPolicy{Policy: tc.mk(), t: t, key: pol.(*sim.PriorityPolicy).Priority().Key, rank: tc.rank}
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				packets, err := workload.UniformRandom(m, 60, rng)
				if err != nil {
					t.Fatal(err)
				}
				opts := sim.Options{Seed: seed + 100, Validation: sim.ValidateGreedy, MaxSteps: 200000}
				a, err := sim.New(m, tc.mk(), clonePackets(packets), opts)
				if err != nil {
					t.Fatal(err)
				}
				b, err := sim.New(m, checked, clonePackets(packets), opts)
				if err != nil {
					t.Fatal(err)
				}
				stepLockstep(t, a, b)
			}
			if checked.checks == 0 {
				t.Fatal("no node held two packets; the test proved nothing")
			}
		})
	}
}

// clonePackets deep-copies a workload so two engines cannot share state.
func clonePackets(pkts []*sim.Packet) []*sim.Packet {
	out := make([]*sim.Packet, len(pkts))
	for i, p := range pkts {
		c := *p
		out[i] = &c
	}
	return out
}
