package analysis

// E9 and E10: algorithm comparison and the livelock study.

import (
	"fmt"
	"math/bits"
	"math/rand"

	"hotpotato/internal/bound"
	"hotpotato/internal/core"
	"hotpotato/internal/mesh"
	"hotpotato/internal/routing"
	"hotpotato/internal/sim"
	"hotpotato/internal/stats"
	"hotpotato/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E9",
		Title: "Algorithm comparison: section-4 class vs greedy baselines",
		Claim: "Greedy hot-potato algorithms perform far better in simulation than the worst-case bounds (Section 1); restricted priority is competitive with other greedy tie-breaking rules; single-target and local instances track the 2(k-1)+dmax reference of Section 6.1.",
		Run:   runE9,
	})
	register(Experiment{
		ID:    "E10",
		Title: "Livelock: deterministic greedy tie-breaking vs the section-4 class",
		Claim: "Pure greediness admits livelock (Section 1.2, [NS1], [Haj]); Theorem 20 rules it out for any algorithm preferring restricted packets, including fully deterministic ones.",
		Run:   runE10,
	})
}

func runE9(cfg Config) ([]*stats.Table, error) {
	n := 16
	if cfg.Quick {
		n = 10
	}
	m, err := mesh.New(2, n)
	if err != nil {
		return nil, err
	}
	trials := cfg.trials(5, 2)
	// Heavy loads: with light traffic every greedy policy finishes in
	// exactly dmax steps and the comparison is vacuous.
	k := n * n

	policies := []struct {
		name string
		mk   func() sim.Policy
	}{
		{"restricted-priority", core.NewRestrictedPriority},
		{"fewest-good-first", core.NewFewestGoodFirst},
		{"greedy-random", routing.NewRandomGreedy},
		{"greedy-dest-order", routing.NewDestOrderGreedy},
		{"greedy-farthest-first", routing.NewFarthestFirst},
		{"greedy-nearest-first", routing.NewNearestFirst},
	}
	target := m.ID([]int{n / 2, n / 2})
	wls := []struct {
		name string
		mk   func(rng *rand.Rand) ([]*sim.Packet, error)
	}{
		{"uniform", func(rng *rand.Rand) ([]*sim.Packet, error) { return workload.UniformRandom(m, k, rng) }},
		{"full-load-2", func(rng *rand.Rand) ([]*sim.Packet, error) { return workload.FullLoad(m, 2, rng) }},
		{"permutation", func(rng *rand.Rand) ([]*sim.Packet, error) { return workload.Permutation(m, rng), nil }},
		{"single-target", func(rng *rand.Rand) ([]*sim.Packet, error) {
			return workload.SingleTarget(m, n*n/4, target, rng)
		}},
		{"local-r4", func(rng *rand.Rand) ([]*sim.Packet, error) { return workload.LocalRandom(m, k, 4, rng) }},
		{"transpose", func(rng *rand.Rand) ([]*sim.Packet, error) { return workload.Transpose(m) }},
	}

	var tables []*stats.Table
	for _, wl := range wls {
		tb := stats.NewTable(
			fmt.Sprintf("E9 (%s workload, %dx%d mesh): mean routing time by policy", wl.name, n, n),
			"policy", "steps_mean", "steps_std", "steps_max", "deflections_mean", "bts_ref", "lb_instance")
		for _, pol := range policies {
			results, err := RunTrials(TrialSpec{
				Mesh:        m,
				NewPolicy:   pol.mk,
				NewWorkload: wl.mk,
				Validation:  sim.ValidateGreedy,
			}, trials, cfg.SeedBase)
			if err != nil {
				return nil, err
			}
			if !AllDelivered(results) {
				return nil, fmt.Errorf("E9: %s on %s left packets undelivered", pol.name, wl.name)
			}
			sm := stats.SummarizeInts(Steps(results))
			var deflSum float64
			var dmax, kAct, lb int
			for _, r := range results {
				deflSum += float64(r.Result.TotalDeflections)
				if r.DMax > dmax {
					dmax = r.DMax
				}
				if b := bound.Instance(m, r.Packets); b > lb {
					lb = b
				}
				kAct = r.Result.Total
			}
			tb.AddRow(pol.name, sm.Mean, sm.Std, int(sm.Max),
				deflSum/float64(len(results)), BTSBound(kAct, dmax), lb)
		}
		tb.AddNote("%d trials per row; bts_ref = 2(k-1)+dmax (Section 6.1 reference, not a bound for these policies)", trials)
		tb.AddNote("lb_instance = max over trials of the instance lower bound (distance, destination congestion, bisection)")
		tables = append(tables, tb)
	}
	return tables, nil
}

// e10Policies are the deterministic greedy tie-breaking rules searched for
// livelock. Each is a legal greedy policy (engine-validated); none prefers
// restricted packets.
func e10Policies() []struct {
	name string
	mk   func() sim.Policy
} {
	return []struct {
		name string
		mk   func() sim.Policy
	}{
		{"fixed-id", func() sim.Policy { return routing.NewFixedPriority() }},
		{"reverse-id", func() sim.Policy {
			return routing.NewCustom("greedy-reverse-id",
				func(_ *sim.Site, p *sim.Packet, _ uint16) sim.Key { return sim.Key{Major: -p.ID} },
				false, routing.DeflectFirstFit)
		}},
		{"nearest-det", func() sim.Policy {
			return routing.NewCustom("greedy-nearest-det",
				func(s *sim.Site, p *sim.Packet, _ uint16) sim.Key {
					return sim.Key{Major: s.Mesh.Dist(p.Node, p.Dst), Minor: p.ID}
				},
				false, routing.DeflectFirstFit)
		}},
		{"farthest-det", func() sim.Policy {
			return routing.NewCustom("greedy-farthest-det",
				func(s *sim.Site, p *sim.Packet, _ uint16) sim.Key {
					return sim.Key{Major: -s.Mesh.Dist(p.Node, p.Dst), Minor: p.ID}
				},
				false, routing.DeflectFirstFit)
		}},
		{"antirestricted-det", func() sim.Policy {
			// Deliberately the opposite of the paper's class: packets with
			// MORE good directions win ties, so restricted packets starve.
			return routing.NewCustom("greedy-antirestricted",
				func(_ *sim.Site, p *sim.Packet, good uint16) sim.Key {
					return sim.Key{Major: -bits.OnesCount16(good), Minor: p.ID}
				},
				false, routing.DeflectFirstFit)
		}},
	}
}

func runE10(cfg Config) ([]*stats.Table, error) {
	m, err := mesh.New(2, 4)
	if err != nil {
		return nil, err
	}
	configs := cfg.trials(3000, 300)
	maxSteps := 4000

	search := stats.NewTable(
		"E10a: livelock search, deterministic greedy tie-breaking on the 4x4 mesh",
		"policy", "configs", "livelocked", "hit_step_cap", "max_steps_seen", "first_livelock_seed")
	for _, pol := range e10Policies() {
		var livelocked, capped, maxSeen int
		firstSeed := int64(-1)
		for c := 0; c < configs; c++ {
			seed := cfg.SeedBase + int64(c)
			rng := rand.New(rand.NewSource(seed))
			k := 4 + rng.Intn(21)
			packets, err := workload.UniformRandom(m, k, rng)
			if err != nil {
				return nil, err
			}
			e, err := sim.New(m, pol.mk(), packets, sim.Options{
				Seed:           seed,
				Validation:     sim.ValidateGreedy,
				MaxSteps:       maxSteps,
				DetectLivelock: true,
			})
			if err != nil {
				return nil, err
			}
			res, err := e.Run()
			if err != nil {
				return nil, err
			}
			if res.Livelocked {
				livelocked++
				if firstSeed < 0 {
					firstSeed = seed
				}
			}
			if res.HitMaxSteps {
				capped++
			}
			if res.Steps > maxSeen {
				maxSeen = res.Steps
			}
		}
		search.AddRow(pol.name, configs, livelocked, capped, maxSeen, firstSeed)
	}
	search.AddNote("uniform random instances, k in [4, 24]; detection = exact configuration recurrence")
	search.AddNote("the [NS1]/[Haj] livelock constructions use adversarially scheduled tie-breaks; uniform deterministic rules may or may not exhibit recurrence on random instances")

	// The section-4 class cannot livelock (Theorem 20 bounds every member,
	// including deterministic ones): verify on the same instance stream.
	noLL := stats.NewTable(
		"E10b: restricted-priority (deterministic) on the same instances",
		"configs", "livelocked", "max_steps_seen", "max_bound_ratio")
	var maxSeen int
	var worstRatio float64
	for c := 0; c < configs; c++ {
		seed := cfg.SeedBase + int64(c)
		rng := rand.New(rand.NewSource(seed))
		k := 4 + rng.Intn(21)
		packets, err := workload.UniformRandom(m, k, rng)
		if err != nil {
			return nil, err
		}
		e, err := sim.New(m, core.NewRestrictedPriorityDeterministic(), packets, sim.Options{
			Seed:           seed,
			Validation:     sim.ValidateRestricted,
			MaxSteps:       maxSteps,
			DetectLivelock: true,
		})
		if err != nil {
			return nil, err
		}
		res, err := e.Run()
		if err != nil {
			return nil, err
		}
		if res.Livelocked {
			return nil, fmt.Errorf("E10: restricted-priority livelocked at seed %d, contradicting Theorem 20", seed)
		}
		if res.Steps > maxSeen {
			maxSeen = res.Steps
		}
		if r := ratio(float64(res.Steps), Theorem20Bound(m.Side(), k)); r > worstRatio {
			worstRatio = r
		}
	}
	noLL.AddRow(configs, 0, maxSeen, worstRatio)
	noLL.AddNote("Theorem 20 guarantees termination within 8*sqrt(2)*n*sqrt(k) for every class member; zero livelocks required")
	return []*stats.Table{search, noLL}, nil
}
