package analysis

// E15: ablations of the design choices DESIGN.md calls out — the spare
// potential (vs a naive distance-only potential), the augmenting-path
// maximum matching (vs single-pass first-fit), the tie-breaking order and
// the deflection rule.

import (
	"fmt"
	"math/rand"

	"hotpotato/internal/core"
	"hotpotato/internal/mesh"
	"hotpotato/internal/routing"
	"hotpotato/internal/sim"
	"hotpotato/internal/stats"
	"hotpotato/internal/workload"
)

func init() {
	register(Experiment{
		ID:    "E15",
		Title: "Ablations: spare potential, maximum matching, tie-breaks, deflection rule",
		Claim: "Each design ingredient earns its place: without the Figure-6 spare potential, Property 8 fails (the potential method collapses); without augmenting-path matching, fewer packets advance per step; tie-break and deflection randomization barely move batch times (the class is robust, as Theorem 20 suggests).",
		Run:   runE15,
	})
}

func runE15(cfg Config) ([]*stats.Table, error) {
	n := 16
	if cfg.Quick {
		n = 10
	}
	m, err := mesh.New(2, n)
	if err != nil {
		return nil, err
	}
	trials := cfg.trials(4, 2)

	// Part A: potential ablation. The distance-only potential must fail
	// Property 8 and Corollary 10 wherever real deflections happen.
	potTable := stats.NewTable(
		fmt.Sprintf("E15a (potential ablation): restricted-priority on the %dx%d mesh", n, n),
		"potential", "workload", "prop8_viol", "cor10_viol", "phi_monotone")
	potVariants := []struct {
		name string
		opts core.TrackerOptions
	}{
		{"figure-6 (dist + spare, burn 2)", core.TrackerOptions{}},
		{"figure-6 with burn 1", core.TrackerOptions{Burn: 1}},
		{"distance-only", core.TrackerOptions{DistanceOnly: true}},
	}
	for _, pv := range potVariants {
		for _, wl := range []struct {
			name string
			mk   func(rng *rand.Rand) ([]*sim.Packet, error)
		}{
			{"hotspot", func(rng *rand.Rand) ([]*sim.Packet, error) { return workload.HotSpot(m, n*n/2, 0.5, rng) }},
			{"permutation", func(rng *rand.Rand) ([]*sim.Packet, error) { return workload.Permutation(m, rng), nil }},
		} {
			var prop8, cor10 int
			monotone := true
			for trial := 0; trial < trials; trial++ {
				seed := cfg.SeedBase + int64(trial)
				rng := rand.New(rand.NewSource(seed))
				packets, err := wl.mk(rng)
				if err != nil {
					return nil, err
				}
				e, err := sim.New(m, core.NewRestrictedPriority(), packets, sim.Options{
					Seed:       seed + 1,
					Validation: sim.ValidateRestricted,
				})
				if err != nil {
					return nil, err
				}
				tr := core.NewTracker(m, packets, pv.opts)
				e.AddObserver(tr)
				if _, err := e.Run(); err != nil {
					return nil, err
				}
				v := tr.Violations()
				prop8 += v.Property8
				cor10 += v.Corollary10
				hist := tr.PhiHistory()
				for i := 1; i < len(hist); i++ {
					if hist[i] > hist[i-1] {
						monotone = false
					}
				}
			}
			potTable.AddRow(pv.name, wl.name, prop8, cor10, monotone)
		}
	}
	potTable.AddNote("%d trials per cell; distance-only must violate Property 8 wherever deflections occur", trials)
	potTable.AddNote("burn 1 probes minimality of the paper's burn rate: one spare unit per step cannot pay for a deflection")

	// Part B: algorithmic ablations on heavy traffic.
	variants := []struct {
		name string
		mk   func() sim.Policy
	}{
		{"full (A-first, max-match, rand-defl)", core.NewRestrictedPriority},
		{"deterministic ties + first-fit defl", core.NewRestrictedPriorityDeterministic},
		{"B-first within restricted", core.NewRestrictedPriorityTypeBFirst},
		{"single-pass matching (no augment)", func() sim.Policy {
			return routing.NewCustomSinglePass("restricted-single-pass",
				func(_ *sim.Site, _ *sim.Packet, good uint16) sim.Key {
					if sim.Restricted(good) {
						return sim.Key{}
					}
					return sim.Key{Major: 2}
				}, true, routing.DeflectRandom)
		}},
	}
	algoTable := stats.NewTable(
		fmt.Sprintf("E15b (algorithm ablation): 2-per-node full load on the %dx%d mesh", n, n),
		"variant", "steps_mean", "steps_max", "deflections_mean", "advance_frac")
	for _, v := range variants {
		results, err := RunTrials(TrialSpec{
			Mesh:      m,
			NewPolicy: v.mk,
			NewWorkload: func(rng *rand.Rand) ([]*sim.Packet, error) {
				return workload.FullLoad(m, 2, rng)
			},
			Validation: sim.ValidateRestricted,
		}, trials, cfg.SeedBase)
		if err != nil {
			return nil, err
		}
		if !AllDelivered(results) {
			return nil, fmt.Errorf("E15: %s left packets undelivered", v.name)
		}
		sm := stats.SummarizeInts(Steps(results))
		var deflSum, hopSum float64
		for _, r := range results {
			deflSum += float64(r.Result.TotalDeflections)
			hopSum += float64(r.Result.TotalHops)
		}
		algoTable.AddRow(v.name, sm.Mean, int(sm.Max),
			deflSum/float64(len(results)), 1-deflSum/hopSum)
	}
	algoTable.AddNote("%d trials per row; advance_frac = advancing moves / all moves", trials)
	algoTable.AddNote("single-pass is still greedy (Definition 6) and restricted-preferring, but advances fewer packets per node")
	return []*stats.Table{potTable, algoTable}, nil
}
