package routing

import (
	"math/rand"
	"testing"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// runUnder runs packets under pol with the given validation level and
// returns the result, failing the test on any error.
func runUnder(t *testing.T, m *mesh.Mesh, pol sim.Policy, packets []*sim.Packet, lvl sim.ValidationLevel, seed int64) *sim.Result {
	t.Helper()
	e, err := sim.New(m, pol, packets, sim.Options{
		Seed:       seed,
		Validation: lvl,
		MaxSteps:   200000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatalf("policy %s: %v", pol.Name(), err)
	}
	return res
}

// TestPoliciesAreGreedy runs every baseline policy on assorted workloads
// under ValidateGreedy: a single Definition-6 violation aborts the run.
func TestPoliciesAreGreedy(t *testing.T) {
	m := mesh.MustNew(2, 8)
	policies := []func() sim.Policy{
		NewRandomGreedy,
		NewFixedPriority,
		NewDestOrderGreedy,
		NewFarthestFirst,
		NewNearestFirst,
	}
	for _, mk := range policies {
		pol := mk()
		t.Run(pol.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				packets, err := workload.UniformRandom(m, 60, rng)
				if err != nil {
					t.Fatal(err)
				}
				res := runUnder(t, m, mk(), packets, sim.ValidateGreedy, seed)
				if res.Livelocked {
					continue // deterministic policies may livelock; that is legal
				}
				if res.Delivered != res.Total && !res.HitMaxSteps {
					t.Errorf("seed %d: %d/%d delivered", seed, res.Delivered, res.Total)
				}
			}
		})
	}
}

// TestPoliciesDeliverPermutation: randomized greedy policies must complete
// a full permutation on a small mesh.
func TestPoliciesDeliverPermutation(t *testing.T) {
	m := mesh.MustNew(2, 6)
	for _, mk := range []func() sim.Policy{NewRandomGreedy, NewDestOrderGreedy, NewFarthestFirst, NewNearestFirst} {
		pol := mk()
		t.Run(pol.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			packets := workload.Permutation(m, rng)
			res := runUnder(t, m, pol, packets, sim.ValidateGreedy, 11)
			if res.Delivered != res.Total {
				t.Fatalf("%d/%d delivered: %+v", res.Delivered, res.Total, res)
			}
		})
	}
}

// TestPoliciesDDim: the baselines remain legal greedy policies on 3- and
// 4-dimensional meshes.
func TestPoliciesDDim(t *testing.T) {
	for _, cfg := range []struct{ d, n, k int }{{3, 4, 50}, {4, 3, 60}} {
		m := mesh.MustNew(cfg.d, cfg.n)
		rng := rand.New(rand.NewSource(5))
		packets, err := workload.UniformRandom(m, cfg.k, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := runUnder(t, m, NewRandomGreedy(), packets, sim.ValidateGreedy, 5)
		if res.Delivered != res.Total {
			t.Fatalf("d=%d: %d/%d delivered", cfg.d, res.Delivered, res.Total)
		}
	}
}

func TestDeterministicFlag(t *testing.T) {
	if NewRandomGreedy().Deterministic() {
		t.Error("random greedy claims determinism")
	}
	if !NewFixedPriority().Deterministic() {
		t.Error("fixed priority not deterministic")
	}
	if NewCustom("x", nil, true, DeflectFirstFit).Deterministic() {
		t.Error("shuffled custom policy claims determinism")
	}
	if NewCustom("x", nil, false, DeflectRandom).Deterministic() {
		t.Error("random-deflect custom policy claims determinism")
	}
	if !NewCustom("x", nil, false, DeflectFirstFit).Deterministic() {
		t.Error("deterministic custom policy not flagged")
	}
}

func TestPolicyNames(t *testing.T) {
	tests := []struct {
		pol  sim.Policy
		want string
	}{
		{NewRandomGreedy(), "greedy-random"},
		{NewFixedPriority(), "greedy-fixed"},
		{NewDestOrderGreedy(), "greedy-dest-order"},
		{NewFarthestFirst(), "greedy-farthest-first"},
		{NewNearestFirst(), "greedy-nearest-first"},
	}
	for _, tt := range tests {
		if tt.pol.Name() != tt.want {
			t.Errorf("Name() = %q, want %q", tt.pol.Name(), tt.want)
		}
	}
}

// routeOnce routes the packets, all at one node, once under pol with basic
// validation and returns the directions the router assigned.
func routeOnce(t *testing.T, m *mesh.Mesh, pol sim.Policy, packets []*sim.Packet) []mesh.Dir {
	t.Helper()
	moves := make([]sim.Move, len(packets))
	for _, p := range packets {
		p.Locate(m.Tables())
	}
	r := sim.NewNodeRouter(m.Tables(), pol, 0, sim.ValidateBasic)
	if err := r.RouteNode(packets[0].Node, 0, packets, moves); err != nil {
		t.Fatal(err)
	}
	out := make([]mesh.Dir, len(moves))
	for i, mv := range moves {
		out[i] = mv.Dir
	}
	return out
}

// TestAssignMaximumMatching: in a node where a clever matching advances all
// packets but a naive first-come assignment would not, the matching must
// advance everyone.
func TestAssignMaximumMatching(t *testing.T) {
	m := mesh.MustNew(2, 5)
	center := m.ID([]int{2, 2})
	// p0 can advance via +x0 or +x1; p1 only via +x0. Priority order p0
	// first: p0 takes +x0 first, then augmentation must reroute p0 to +x1
	// so p1 advances too.
	p0 := sim.NewPacket(0, center, m.ID([]int{4, 4}))
	p1 := sim.NewPacket(1, center, m.ID([]int{4, 2}))
	out := routeOnce(t, m, NewCustom("queue-order", nil, false, DeflectFirstFit), []*sim.Packet{p0, p1})
	advanced := 0
	for i, p := range []*sim.Packet{p0, p1} {
		if m.IsGoodDir(center, p.Dst, out[i]) {
			advanced++
		}
	}
	if advanced != 2 {
		t.Errorf("maximum matching advanced %d of 2 packets (out=%v)", advanced, out)
	}
}

// TestAssignFullNode: a node holding packets equal to its degree must
// assign all of them distinct arcs.
func TestAssignFullNode(t *testing.T) {
	m := mesh.MustNew(2, 5)
	center := m.ID([]int{2, 2})
	dst := m.ID([]int{4, 2})
	var packets []*sim.Packet
	for i := 0; i < 4; i++ {
		packets = append(packets, sim.NewPacket(i, center, dst))
	}
	out := routeOnce(t, m, NewCustom("queue-order", nil, false, DeflectFirstFit), packets)
	seen := map[mesh.Dir]bool{}
	advanced := 0
	for i := range out {
		if out[i] == mesh.NoDir || seen[out[i]] {
			t.Fatalf("bad assignment %v", out)
		}
		seen[out[i]] = true
		if m.IsGoodDir(center, dst, out[i]) {
			advanced++
		}
	}
	if advanced != 1 {
		t.Errorf("advanced = %d, want 1 (single shared good arc)", advanced)
	}
}

// TestAssignPriorityRespected: with two packets contending for one arc, the
// higher-priority one advances.
func TestAssignPriorityRespected(t *testing.T) {
	m := mesh.MustNew(2, 5)
	center := m.ID([]int{2, 2})
	dst := m.ID([]int{4, 2})
	for _, first := range []int{0, 1} {
		pol := NewCustom("first", func(_ *sim.Site, p *sim.Packet, _ uint16) sim.Key {
			if p.ID == first {
				return sim.Key{}
			}
			return sim.Key{Major: 1}
		}, false, DeflectFirstFit)
		out := routeOnce(t, m, pol, []*sim.Packet{sim.NewPacket(0, center, dst), sim.NewPacket(1, center, dst)})
		if !m.IsGoodDir(center, dst, out[first]) {
			t.Errorf("priority packet %d deflected (out=%v)", first, out)
		}
		if m.IsGoodDir(center, dst, out[1-first]) {
			t.Errorf("low-priority packet advanced on a contended arc")
		}
	}
}
