package routing

import (
	"math/rand"
	"testing"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// TestAssignSinglePassNoAugment: in the configuration where maximum
// matching advances both packets, single-pass advances only the first.
func TestAssignSinglePassNoAugment(t *testing.T) {
	m := mesh.MustNew(2, 5)
	center := m.ID([]int{2, 2})
	p0 := sim.NewPacket(0, center, m.ID([]int{4, 4})) // good: +x0, +x1
	p1 := sim.NewPacket(1, center, m.ID([]int{4, 2})) // good: +x0 only
	out := routeOnce(t, m, NewCustomSinglePass("single-pass", nil, false, DeflectFirstFit), []*sim.Packet{p0, p1})
	advanced := 0
	for i, p := range []*sim.Packet{p0, p1} {
		if m.IsGoodDir(center, p.Dst, out[i]) {
			advanced++
		}
	}
	// p0 (first in order) grabs +x0; p1 has no alternative: deflected.
	if advanced != 1 {
		t.Errorf("single-pass advanced %d, want 1 (out=%v)", advanced, out)
	}
	// Still Definition-6 compliant: p1's only good arc is used by the
	// advancing p0.
	if !m.IsGoodDir(center, p0.Dst, out[0]) {
		t.Errorf("first packet not advancing: %v", out)
	}
}

// TestSinglePassPolicyIsGreedy: the single-pass policy passes the engine's
// Definition-6 validation on busy instances and delivers everything.
func TestSinglePassPolicyIsGreedy(t *testing.T) {
	m := mesh.MustNew(2, 8)
	pol := NewCustomSinglePass("single-pass-test", nil, true, DeflectRandom)
	if pol.Deterministic() {
		t.Error("shuffled single-pass claims determinism")
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		packets, err := workload.FullLoad(m, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := runUnder(t, m, NewCustomSinglePass("single-pass-test", nil, true, DeflectRandom),
			packets, sim.ValidateGreedy, seed)
		if res.Delivered != res.Total {
			t.Fatalf("seed %d: %d/%d delivered", seed, res.Delivered, res.Total)
		}
	}
}

// TestOldestFirstDynamic: under dynamic traffic the oldest-first policy is
// legal greedy and prioritizes by injection time.
func TestOldestFirstDynamic(t *testing.T) {
	m := mesh.MustNew(2, 8)
	pol := NewOldestFirst()
	if pol.Name() != "greedy-oldest-first" || pol.Deterministic() {
		t.Errorf("metadata wrong: %s/%v", pol.Name(), pol.Deterministic())
	}
	e, err := sim.New(m, pol, nil, sim.Options{
		Seed:       5,
		Validation: sim.ValidateGreedy,
		MaxSteps:   2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetInjector(&burstInjector{bursts: 10})
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Total || res.Total == 0 {
		t.Fatalf("%d/%d delivered", res.Delivered, res.Total)
	}
	// Age is recorded for later injections.
	sawLate := false
	for _, p := range e.Packets() {
		if p.InjectedAt > 0 {
			sawLate = true
		}
	}
	if !sawLate {
		t.Error("no packet has a positive injection time")
	}
}

type burstInjector struct{ bursts int }

func (bi *burstInjector) Inject(t int, e sim.InjectorHost, rng *rand.Rand) []*sim.Packet {
	if bi.bursts <= 0 || t%5 != 0 {
		return nil
	}
	bi.bursts--
	var out []*sim.Packet
	used := map[mesh.NodeID]int{}
	for i := 0; i < 6; i++ {
		src := mesh.NodeID(rng.Intn(e.Mesh().Size()))
		if e.InjectionCapacity(src)-used[src] <= 0 {
			continue
		}
		used[src]++
		out = append(out, sim.NewPacket(e.NextPacketID(), src, mesh.NodeID(rng.Intn(e.Mesh().Size()))))
	}
	return out
}

func (bi *burstInjector) Exhausted(t int) bool { return bi.bursts <= 0 }
