package core

import (
	"math"
	"math/rand"
	"testing"

	"hotpotato/internal/mesh"
	"hotpotato/internal/routing"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

func run(t *testing.T, m *mesh.Mesh, pol sim.Policy, packets []*sim.Packet, lvl sim.ValidationLevel, seed int64) (*sim.Result, *Tracker) {
	t.Helper()
	e, err := sim.New(m, pol, packets, sim.Options{
		Seed:       seed,
		Validation: lvl,
		MaxSteps:   500000,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(m, packets, TrackerOptions{RecordSeries: true, SelfCheckEvery: 16})
	e.AddObserver(tr)
	res, err := e.Run()
	if err != nil {
		t.Fatalf("policy %s: %v", pol.Name(), err)
	}
	return res, tr
}

// TestSinglePacketTrace hand-checks the potential of one restricted packet
// walking straight home on an 8x8 mesh: phi = dist + C with C burning 2 per
// type-A step.
func TestSinglePacketTrace(t *testing.T) {
	m := mesh.MustNew(2, 8)
	p := sim.NewPacket(0, m.ID([]int{0, 2}), m.ID([]int{5, 2}))
	res, tr := run(t, m, NewRestrictedPriorityDeterministic(), []*sim.Packet{p}, sim.ValidateRestricted, 0)
	if res.Steps != 5 {
		t.Fatalf("Steps = %d, want 5", res.Steps)
	}
	want := []int64{21, 18, 15, 12, 9, 0}
	got := tr.PhiHistory()
	if len(got) != len(want) {
		t.Fatalf("PhiHistory = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PhiHistory = %v, want %v", got, want)
		}
	}
	if v := tr.Violations(); v.Any() {
		t.Errorf("violations: %s", v.String())
	}
}

// TestSwitchRuleTrace hand-checks the full Figure-6 rules, including the
// spare-potential switch (rule 3(b)), on a crafted three-packet scenario
// where a type-B restricted packet deflects a type-A one under the
// B-first member of the Section-4 class.
//
// Packets on the 8x8 mesh: q = (1,4)->(6,4), p = (2,3)->(6,4),
// b = (2,3)->(6,3). At t=1 node (2,4) holds type-A q and type-B p with the
// same unique good arc +x0; the B-first policy advances p, deflecting q,
// and p inherits q's countdown (C = 14-2 = 12 instead of the 14 rule 3(a)
// would give). The expected potential sequence distinguishes the two rules.
func TestSwitchRuleTrace(t *testing.T) {
	m := mesh.MustNew(2, 8)
	q := sim.NewPacket(0, m.ID([]int{1, 4}), m.ID([]int{6, 4}))
	p := sim.NewPacket(1, m.ID([]int{2, 3}), m.ID([]int{6, 4}))
	b := sim.NewPacket(2, m.ID([]int{2, 3}), m.ID([]int{6, 3}))
	// Deterministic B-first variant so the trace is exact.
	pol := routing.NewCustom("restricted-bfirst-det",
		func(ns *sim.NodeState, i, j int) bool {
			return restrictedRank(ns, i, false) < restrictedRank(ns, j, false)
		},
		false, routing.DeflectFirstFit)

	res, tr := run(t, m, pol, []*sim.Packet{q, p, b}, sim.ValidateRestricted, 0)
	if res.Steps != 7 {
		t.Fatalf("Steps = %d, want 7", res.Steps)
	}
	want := []int64{62, 55, 50, 41, 24, 12, 9, 0}
	got := tr.PhiHistory()
	if len(got) != len(want) {
		t.Fatalf("PhiHistory = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PhiHistory[%d] = %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
	if q.Deflections != 1 || p.Deflections != 0 || b.Deflections != 0 {
		t.Errorf("deflections q=%d p=%d b=%d, want 1,0,0", q.Deflections, p.Deflections, b.Deflections)
	}
	if v := tr.Violations(); v.Any() {
		t.Errorf("violations: %s", v.String())
	}
}

// TestRestrictedPriorityPassesStrictValidation: every Section-4 variant
// satisfies Definitions 6 and 18 at every node of every step.
func TestRestrictedPriorityPassesStrictValidation(t *testing.T) {
	m := mesh.MustNew(2, 10)
	variants := []func() sim.Policy{
		NewRestrictedPriority,
		NewRestrictedPriorityDeterministic,
		NewRestrictedPriorityTypeBFirst,
	}
	for _, mk := range variants {
		pol := mk()
		t.Run(pol.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				packets, err := workload.UniformRandom(m, 120, rng)
				if err != nil {
					t.Fatal(err)
				}
				res, _ := run(t, m, mk(), packets, sim.ValidateRestricted, seed)
				if res.Delivered != res.Total {
					t.Fatalf("seed %d: %d/%d delivered (%+v)", seed, res.Delivered, res.Total, res)
				}
			}
		})
	}
}

// theorem20 returns the Theorem-20 bound 8*sqrt(2)*n*sqrt(k).
func theorem20(n, k int) float64 {
	return 8 * math.Sqrt2 * float64(n) * math.Sqrt(float64(k))
}

// TestTrackerNoViolations2D is the empirical heart of the reproduction:
// for the default (type-A-first) Section-4 policies, every potential
// inequality of Sections 3-4 must hold at every node and every step, on a
// spread of workloads.
func TestTrackerNoViolations2D(t *testing.T) {
	m := mesh.MustNew(2, 10)
	rng := rand.New(rand.NewSource(3))
	workloads := map[string][]*sim.Packet{}
	if ps, err := workload.UniformRandom(m, 150, rng); err == nil {
		workloads["uniform"] = ps
	} else {
		t.Fatal(err)
	}
	workloads["permutation"] = workload.Permutation(m, rng)
	if ps, err := workload.HotSpot(m, 80, 0.5, rng); err == nil {
		workloads["hotspot"] = ps
	} else {
		t.Fatal(err)
	}
	if ps, err := workload.SingleTarget(m, 40, m.ID([]int{5, 5}), rng); err == nil {
		workloads["single-target"] = ps
	} else {
		t.Fatal(err)
	}
	if ps, err := workload.CornerRush(m, 40, rng); err == nil {
		workloads["corner-rush"] = ps
	} else {
		t.Fatal(err)
	}
	if ps, err := workload.Transpose(m); err == nil {
		workloads["transpose"] = ps
	} else {
		t.Fatal(err)
	}

	for name, packets := range workloads {
		for _, mk := range []func() sim.Policy{NewRestrictedPriority, NewRestrictedPriorityDeterministic} {
			pol := mk()
			t.Run(name+"/"+pol.Name(), func(t *testing.T) {
				// Fresh copies: the engine mutates packets.
				fresh := make([]*sim.Packet, len(packets))
				for i, p := range packets {
					fresh[i] = sim.NewPacket(p.ID, p.Src, p.Dst)
				}
				res, tr := run(t, m, pol, fresh, sim.ValidateRestricted, 17)
				if res.Delivered != res.Total {
					t.Fatalf("%d/%d delivered (%+v)", res.Delivered, res.Total, res)
				}
				if v := tr.Violations(); v.Any() {
					t.Errorf("violations: %s", v.String())
				}
				if tr.Phi() != 0 {
					t.Errorf("final Phi = %d, want 0", tr.Phi())
				}
				// Phi is monotone nonincreasing (Corollary 10).
				hist := tr.PhiHistory()
				for i := 1; i < len(hist); i++ {
					if hist[i] > hist[i-1] {
						t.Fatalf("Phi increased at step %d: %d -> %d", i-1, hist[i-1], hist[i])
					}
				}
				// Theorem 20: the routing time respects the bound.
				if float64(res.Steps) > theorem20(m.Side(), res.Total) {
					t.Errorf("Steps = %d exceeds Theorem 20 bound %.0f", res.Steps, theorem20(m.Side(), res.Total))
				}
				// MinSpare must stay positive: a type-A countdown never
				// reaches zero before arrival (C >= 2*dist + 2 invariant).
				if tr.MinSpare() <= 0 {
					t.Errorf("MinSpare = %d, want positive", tr.MinSpare())
				}
			})
		}
	}
}

// TestTypeBFirstStructuralInvariants: the B-first variant is a legal member
// of the class, so the node-local inequalities (Property 8 and everything
// derived from it) must still hold; the per-packet range claims are
// reported by the tracker and must also hold on these inputs.
func TestTypeBFirstStructuralInvariants(t *testing.T) {
	m := mesh.MustNew(2, 10)
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		packets, err := workload.UniformRandom(m, 150, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, tr := run(t, m, NewRestrictedPriorityTypeBFirst(), packets, sim.ValidateRestricted, seed)
		if res.Delivered != res.Total {
			t.Fatalf("%d/%d delivered", res.Delivered, res.Total)
		}
		v := tr.Violations()
		if v.Property8+v.Corollary10+v.Lemma12+v.Lemma14+v.Lemma15+v.Conservation > 0 {
			t.Errorf("seed %d: structural violations: %s", seed, v.String())
		}
	}
}

// TestTheorem20AcrossSizes sweeps mesh sizes and packet counts.
func TestTheorem20AcrossSizes(t *testing.T) {
	for _, cfg := range []struct{ n, k int }{{4, 8}, {8, 32}, {12, 100}, {16, 256}} {
		m := mesh.MustNew(2, cfg.n)
		rng := rand.New(rand.NewSource(int64(cfg.n)))
		packets, err := workload.UniformRandom(m, cfg.k, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, tr := run(t, m, NewRestrictedPriority(), packets, sim.ValidateRestricted, int64(cfg.k))
		if res.Delivered != res.Total {
			t.Fatalf("n=%d k=%d: %d/%d delivered", cfg.n, cfg.k, res.Delivered, res.Total)
		}
		if bound := theorem20(cfg.n, cfg.k); float64(res.Steps) > bound {
			t.Errorf("n=%d k=%d: Steps=%d > bound %.0f", cfg.n, cfg.k, res.Steps, bound)
		}
		if v := tr.Violations(); v.Any() {
			t.Errorf("n=%d k=%d: %s", cfg.n, cfg.k, v.String())
		}
	}
}

// TestFewestGoodFirstDDim: the Section-5 policy is greedy in d dimensions
// and finishes within the Section-5 bound. The potential tracker's 2-D
// rules are reconstructions for d >= 3 (see DESIGN.md), so only the
// always-true geometric Lemma 14 is asserted here.
func TestFewestGoodFirstDDim(t *testing.T) {
	for _, cfg := range []struct{ d, n, k int }{{3, 5, 100}, {4, 3, 80}} {
		m := mesh.MustNew(cfg.d, cfg.n)
		rng := rand.New(rand.NewSource(9))
		packets, err := workload.UniformRandom(m, cfg.k, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, tr := run(t, m, NewFewestGoodFirst(), packets, sim.ValidateGreedy, 9)
		if res.Delivered != res.Total {
			t.Fatalf("d=%d: %d/%d delivered", cfg.d, res.Delivered, res.Total)
		}
		// Section-5 bound: 4^{d+1-1/d} * d^{1-1/d} * k^{1/d} * n^{d-1}.
		d, n, k := float64(cfg.d), float64(cfg.n), float64(res.Total)
		bound := math.Pow(4, d+1-1/d) * math.Pow(d, 1-1/d) * math.Pow(k, 1/d) * math.Pow(n, d-1)
		if float64(res.Steps) > bound {
			t.Errorf("d=%d: Steps=%d > Section-5 bound %.0f", cfg.d, res.Steps, bound)
		}
		if v := tr.Violations(); v.Lemma14 > 0 {
			t.Errorf("d=%d: Lemma 14 violated %d times (geometry must always hold)", cfg.d, v.Lemma14)
		}
		if v := tr.Violations(); v.Conservation > 0 {
			t.Errorf("d=%d: tracker bookkeeping drifted", cfg.d)
		}
	}
}

// TestRestrictedPriorityStepAllocs holds the production policy to the
// engine's zero-allocation contract: once a dense run is past its first 32
// steps, a Step under restricted priority with greedy validation and no
// conflict observer allocates nothing. sim.TestStepSteadyStateAllocs states
// the same contract for a test policy only, since package sim cannot import
// this one.
func TestRestrictedPriorityStepAllocs(t *testing.T) {
	m := mesh.MustNew(2, 32)
	for seed := int64(1); seed <= 5; seed++ {
		packets, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.New(m, NewRestrictedPriority(), packets, sim.Options{Seed: seed, Validation: sim.ValidateGreedy})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, func() {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		})
		if e.Done() {
			t.Fatalf("seed %d: run finished before every measured Step had packets to route", seed)
		}
		if allocs != 0 {
			t.Errorf("seed %d: Step at t=%d with %d packets live allocates %.2f times per call, want 0", seed, e.Time(), e.Live(), allocs)
		}
	}
}

// TestRestrictedPriorityOnLine: d=1 degenerate case still works (every
// packet is restricted on a line).
func TestRestrictedPriorityOnLine(t *testing.T) {
	m := mesh.MustNew(1, 16)
	rng := rand.New(rand.NewSource(4))
	packets, err := workload.UniformRandom(m, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := run(t, m, NewRestrictedPriority(), packets, sim.ValidateRestricted, 4)
	if res.Delivered != res.Total {
		t.Fatalf("%d/%d delivered", res.Delivered, res.Total)
	}
}

// TestViolationsString covers the reporting helpers.
func TestViolationsString(t *testing.T) {
	var v Violations
	if v.Any() || v.String() != "no violations" {
		t.Errorf("zero Violations: Any=%v String=%q", v.Any(), v.String())
	}
	v.Property8 = 2
	if !v.Any() {
		t.Error("Any() = false with Property8 > 0")
	}
	if v.String() == "no violations" {
		t.Error("String() hides violations")
	}
}

// TestTrackerSeries: the recorded series is internally consistent.
func TestTrackerSeries(t *testing.T) {
	m := mesh.MustNew(2, 8)
	rng := rand.New(rand.NewSource(6))
	packets, err := workload.UniformRandom(m, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, tr := run(t, m, NewRestrictedPriority(), packets, sim.ValidateRestricted, 6)
	series := tr.Series()
	if len(series) == 0 {
		t.Fatal("no series recorded")
	}
	if len(series) < res.Steps {
		t.Fatalf("series has %d entries for %d steps", len(series), res.Steps)
	}
	for i, s := range series {
		if s.Time != i {
			t.Fatalf("series[%d].Time = %d", i, s.Time)
		}
		if s.PhiAfter > s.PhiBefore {
			t.Fatalf("step %d: Phi increased", i)
		}
		if s.Good < 0 || s.Bad < 0 || s.SurfaceArcs < 0 {
			t.Fatalf("step %d: negative counters %+v", i, s)
		}
		if s.Advanced+s.Deflected == 0 && s.PhiBefore > 0 {
			t.Fatalf("step %d: no moves with positive potential", i)
		}
		if s.Bad > 0 && s.SurfaceArcs == 0 {
			t.Fatalf("step %d: bad nodes but no surface arcs", i)
		}
	}
}
