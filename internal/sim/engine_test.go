package sim

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hotpotato/internal/mesh"
)

// testPolicy is a configurable policy for engine tests.
type testPolicy struct {
	name  string
	det   bool
	route func(ns *NodeState, out []mesh.Dir, rng *rand.Rand)
}

func (p *testPolicy) Name() string        { return p.name }
func (p *testPolicy) Deterministic() bool { return p.det }
func (p *testPolicy) Route(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
	p.route(ns, out, rng)
}

// firstGoodPolicy advances each packet along its first good direction if
// that arc is free, otherwise assigns any free arc. It is greedy only by
// accident, so tests use ValidateBasic with it.
func firstGoodPolicy() Policy {
	return &testPolicy{
		name: "test-first-good",
		det:  true,
		route: func(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
			taken := make(map[mesh.Dir]bool)
			for i := range ns.Packets {
				for _, g := range ns.Info(i).Good() {
					if !taken[g] {
						out[i] = g
						taken[g] = true
						break
					}
				}
			}
			for i := range ns.Packets {
				if out[i] != mesh.NoDir {
					continue
				}
				for dir := mesh.Dir(0); int(dir) < ns.Mesh.DirCount(); dir++ {
					if !taken[dir] && ns.HasArc(dir) {
						out[i] = dir
						taken[dir] = true
						break
					}
				}
			}
		},
	}
}

func TestSinglePacketWalksShortestPath(t *testing.T) {
	m := mesh.MustNew(2, 8)
	src := m.ID([]int{1, 2})
	dst := m.ID([]int{6, 7})
	p := NewPacket(0, src, dst)
	e, err := New(m, firstGoodPolicy(), []*Packet{p}, Options{Validation: ValidateBasic})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := m.Dist(src, dst)
	if res.Steps != want {
		t.Errorf("Steps = %d, want %d", res.Steps, want)
	}
	if res.Delivered != 1 || res.TotalDeflections != 0 {
		t.Errorf("Delivered=%d Deflections=%d, want 1, 0", res.Delivered, res.TotalDeflections)
	}
	if !p.Arrived() || p.ArrivedAt != want || p.Hops != want {
		t.Errorf("packet state %+v, want arrival at %d", p, want)
	}
	if p.Delay() != want {
		t.Errorf("Delay() = %d, want %d", p.Delay(), want)
	}
}

func TestPacketAtDestinationAbsorbedImmediately(t *testing.T) {
	m := mesh.MustNew(2, 4)
	p := NewPacket(0, 5, 5)
	e, err := New(m, firstGoodPolicy(), []*Packet{p}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Arrived() || p.ArrivedAt != 0 {
		t.Errorf("packet not absorbed at t=0: %+v", p)
	}
	if !e.Done() {
		t.Error("engine not done with all packets at destinations")
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 0 || res.Delivered != 1 {
		t.Errorf("result %+v, want Steps=0 Delivered=1", res)
	}
}

func TestInjectionValidation(t *testing.T) {
	m := mesh.MustNew(2, 4)
	mk := func(ps ...*Packet) error {
		_, err := New(m, firstGoodPolicy(), ps, Options{})
		return err
	}
	corner := m.ID([]int{0, 0})

	tests := []struct {
		name string
		err  error
	}{
		{"nil packet", mk(nil)},
		{"bad source", mk(&Packet{ID: 0, Src: -1, Dst: 1, Node: -1, ArrivedAt: -1})},
		{"bad destination", mk(&Packet{ID: 0, Src: 1, Dst: 99, Node: 1, ArrivedAt: -1})},
		{"not at source", mk(&Packet{ID: 0, Src: 1, Dst: 2, Node: 3, ArrivedAt: -1})},
		{"duplicate id", mk(NewPacket(7, 0, 5), NewPacket(7, 1, 5))},
		{"over capacity", mk(NewPacket(0, corner, 5), NewPacket(1, corner, 6), NewPacket(2, corner, 7))},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !errors.Is(tt.err, ErrBadInjection) {
				t.Errorf("error = %v, want ErrBadInjection", tt.err)
			}
		})
	}
	if err := mk(NewPacket(0, corner, 5), NewPacket(1, corner, 6)); err != nil {
		t.Errorf("corner with 2 packets (its out-degree) rejected: %v", err)
	}
	if _, err := New(nil, firstGoodPolicy(), nil, Options{}); !errors.Is(err, ErrBadInjection) {
		t.Errorf("nil mesh error = %v", err)
	}
	if _, err := New(m, nil, nil, Options{}); !errors.Is(err, ErrBadInjection) {
		t.Errorf("nil policy error = %v", err)
	}
}

// TestAdmitInitialSparseUnorderedIDs: IDs need be neither dense nor in
// order. The watermark is one past the largest, packets reach place in input
// order, and a duplicate hidden among out-of-order IDs is still refused —
// before any packet is placed.
func TestAdmitInitialSparseUnorderedIDs(t *testing.T) {
	m := mesh.MustNew(2, 4)
	mk := func(ids ...int) []*Packet {
		ps := make([]*Packet, len(ids))
		for i, id := range ids {
			ps[i] = NewPacket(id, mesh.NodeID(i), 15)
		}
		return ps
	}
	var placed []int
	place := func(p *Packet) (int, bool) { placed = append(placed, p.ID); return 1, true }
	next, err := AdmitInitial(m, mk(900, 3, 41, 7), place)
	if err != nil {
		t.Fatal(err)
	}
	if next != 901 || !slices.Equal(placed, []int{900, 3, 41, 7}) {
		t.Fatalf("next id %d, placed %v; want 901, [900 3 41 7]", next, placed)
	}
	placed = nil
	if _, err := AdmitInitial(m, mk(900, 41, 3, 77, 41), place); !errors.Is(err, ErrBadInjection) || !strings.Contains(err.Error(), "duplicate packet id 41") {
		t.Fatalf("duplicate among unordered ids: err = %v", err)
	}
	if len(placed) != 0 {
		t.Fatalf("placed %v before refusing the batch", placed)
	}
}

// badPolicy builds policies that emit a specific illegal assignment.
func badPolicy(route func(ns *NodeState, out []mesh.Dir, rng *rand.Rand)) Policy {
	return &testPolicy{name: "test-bad", det: true, route: route}
}

func TestValidationCatchesIllegalAssignments(t *testing.T) {
	m := mesh.MustNew(2, 4)

	t.Run("unassigned packet", func(t *testing.T) {
		p := NewPacket(0, m.ID([]int{1, 1}), m.ID([]int{3, 3}))
		pol := badPolicy(func(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {})
		e, err := New(m, pol, []*Packet{p}, Options{Validation: ValidateBasic})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); !errors.Is(err, ErrUnassigned) {
			t.Errorf("Step() = %v, want ErrUnassigned", err)
		}
	})

	t.Run("off mesh", func(t *testing.T) {
		p := NewPacket(0, m.ID([]int{0, 0}), m.ID([]int{3, 3}))
		pol := badPolicy(func(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
			out[0] = mesh.DirMinus(0)
		})
		e, err := New(m, pol, []*Packet{p}, Options{Validation: ValidateBasic})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); !errors.Is(err, ErrOffMesh) {
			t.Errorf("Step() = %v, want ErrOffMesh", err)
		}
	})

	t.Run("off mesh uncaught by validation still fails", func(t *testing.T) {
		p := NewPacket(0, m.ID([]int{0, 0}), m.ID([]int{3, 3}))
		pol := badPolicy(func(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
			out[0] = mesh.DirMinus(0)
		})
		e, err := New(m, pol, []*Packet{p}, Options{Validation: ValidateOff})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); !errors.Is(err, ErrOffMesh) {
			t.Errorf("Step() = %v, want ErrOffMesh even unvalidated", err)
		}
	})

	t.Run("link conflict", func(t *testing.T) {
		src := m.ID([]int{1, 1})
		p0 := NewPacket(0, src, m.ID([]int{3, 1}))
		p1 := NewPacket(1, src, m.ID([]int{3, 2}))
		pol := badPolicy(func(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
			for i := range out {
				out[i] = mesh.DirPlus(0)
			}
		})
		e, err := New(m, pol, []*Packet{p0, p1}, Options{Validation: ValidateBasic})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); !errors.Is(err, ErrLinkConflict) {
			t.Errorf("Step() = %v, want ErrLinkConflict", err)
		}
	})

	t.Run("link conflict uncaught by validation still fails", func(t *testing.T) {
		// Three packets pushed down one arc into a degree-2 corner: the
		// corner's queue has no room for the third.
		src := m.ID([]int{1, 0})
		var pkts []*Packet
		for i := 0; i < 3; i++ {
			pkts = append(pkts, NewPacket(i, src, m.ID([]int{3, 3})))
		}
		pol := badPolicy(func(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
			for i := range out {
				out[i] = mesh.DirMinus(0)
			}
		})
		e, err := New(m, pol, pkts, Options{Validation: ValidateOff})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); !errors.Is(err, ErrLinkConflict) {
			t.Errorf("Step() = %v, want ErrLinkConflict even unvalidated", err)
		}
	})

	t.Run("non greedy", func(t *testing.T) {
		// A single packet deflected while its good arcs are free.
		p := NewPacket(0, m.ID([]int{1, 1}), m.ID([]int{3, 1}))
		pol := badPolicy(func(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
			out[0] = mesh.DirMinus(0) // away from destination
		})
		e, err := New(m, pol, []*Packet{p}, Options{Validation: ValidateGreedy})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); !errors.Is(err, ErrNotGreedy) {
			t.Errorf("Step() = %v, want ErrNotGreedy", err)
		}
	})

	t.Run("greedy deflection passes greedy validation", func(t *testing.T) {
		// Two packets, one good arc each, same arc: one must be deflected,
		// and that is legal.
		src := m.ID([]int{1, 1})
		dst := m.ID([]int{3, 1})
		p0 := NewPacket(0, src, dst)
		p1 := NewPacket(1, src, dst)
		pol := badPolicy(func(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
			out[0] = mesh.DirPlus(0)
			out[1] = mesh.DirMinus(0)
		})
		e, err := New(m, pol, []*Packet{p0, p1}, Options{Validation: ValidateGreedy})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); err != nil {
			t.Errorf("Step() = %v, want nil", err)
		}
	})

	t.Run("restricted deflected by non-restricted", func(t *testing.T) {
		// p0 is restricted (one good dir +x0); p1 has two good dirs and
		// takes p0's arc while p0 is deflected: Definition 18 violation.
		src := m.ID([]int{1, 1})
		p0 := NewPacket(0, src, m.ID([]int{3, 1}))
		p1 := NewPacket(1, src, m.ID([]int{3, 3}))
		pol := badPolicy(func(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
			out[0] = mesh.DirMinus(0)
			out[1] = mesh.DirPlus(0)
		})
		e, err := New(m, pol, []*Packet{p0, p1}, Options{Validation: ValidateRestricted})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); !errors.Is(err, ErrNotRestrictedPreferring) {
			t.Errorf("Step() = %v, want ErrNotRestrictedPreferring", err)
		}
		// The same assignment passes at ValidateGreedy level.
		p0, p1 = NewPacket(0, src, m.ID([]int{3, 1})), NewPacket(1, src, m.ID([]int{3, 3}))
		e, err = New(m, pol, []*Packet{p0, p1}, Options{Validation: ValidateGreedy})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); err != nil {
			t.Errorf("Step() at ValidateGreedy = %v, want nil", err)
		}
	})
}

// TestConservation runs a busy random instance and checks that no packet is
// ever lost or duplicated and per-arc capacity holds.
func TestConservation(t *testing.T) {
	m := mesh.MustNew(2, 6)
	rng := rand.New(rand.NewSource(42))
	var packets []*Packet
	for i := 0; i < 40; i++ {
		src := mesh.NodeID(rng.Intn(m.Size()))
		dst := mesh.NodeID(rng.Intn(m.Size()))
		packets = append(packets, NewPacket(i, src, dst))
	}
	// Deduplicate over-capacity origins.
	cnt := map[mesh.NodeID]int{}
	ok := packets[:0]
	for _, p := range packets {
		if cnt[p.Src] < m.Degree(p.Src) {
			cnt[p.Src]++
			ok = append(ok, p)
		}
	}
	packets = ok

	e, err := New(m, firstGoodPolicy(), packets, Options{Validation: ValidateBasic, MaxSteps: 500})
	if err != nil {
		t.Fatal(err)
	}
	seenArcs := make(map[[2]int32]bool)
	e.AddObserver(ObserverFunc(func(rec *StepRecord) {
		clear(seenArcs)
		live := 0
		for _, mv := range rec.Moves {
			key := [2]int32{int32(mv.From), int32(mv.Dir)}
			if seenArcs[key] {
				t.Errorf("step %d: arc (%d, %v) used twice", rec.Time, mv.From, mv.Dir)
			}
			seenArcs[key] = true
			live++
			if got, want := mv.Advanced, e.Mesh().Dist(mv.To, mv.Packet.Dst) < e.Mesh().Dist(mv.From, mv.Packet.Dst); got != want {
				t.Errorf("step %d: Advanced=%v inconsistent with distances", rec.Time, got)
			}
		}
		// Every live packet moves every step (hot-potato constraint).
		want := 0
		for _, p := range e.Packets() {
			if !p.Arrived() || p.ArrivedAt > rec.Time {
				want++
			}
		}
		if live != want {
			t.Errorf("step %d: %d moves for %d live packets", rec.Time, live, want)
		}
	}))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered+e.Live() != res.Total {
		t.Errorf("conservation: delivered %d + live %d != total %d", res.Delivered, e.Live(), res.Total)
	}
	for _, p := range packets {
		if p.Arrived() && p.Node != p.Dst {
			t.Errorf("packet %d marked arrived away from destination", p.ID)
		}
	}
}

// TestLivelockDetection: two packets that want each other's current node
// under a deterministic "always swap" policy bounce forever; the detector
// must fire.
func TestLivelockDetection(t *testing.T) {
	m := mesh.MustNew(1, 4)
	// In a path of 4 nodes, packets at nodes 1 and 2 destined to nodes 0
	// and 3 respectively, but the policy sends each one the wrong way
	// whenever both are present... Instead craft a genuinely looping pair:
	// both packets always deflected in a fixed 2-cycle by a malicious
	// (non-greedy) policy that swaps them between nodes 1 and 2.
	p0 := NewPacket(0, 1, 0)
	p1 := NewPacket(1, 2, 3)
	pol := &testPolicy{
		name: "test-swap",
		det:  true,
		route: func(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
			for i, p := range ns.Packets {
				if p.Node == 1 {
					out[i] = mesh.DirPlus(0)
				} else {
					out[i] = mesh.DirMinus(0)
				}
			}
		},
	}
	e, err := New(m, pol, []*Packet{p0, p1}, Options{
		Validation:     ValidateBasic,
		DetectLivelock: true,
		MaxSteps:       10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Livelocked {
		t.Fatalf("livelock not detected: %+v", res)
	}
	if res.Delivered != 0 || res.HitMaxSteps {
		t.Errorf("unexpected result %+v", res)
	}
	if e.Time() > 100 {
		t.Errorf("livelock detected only after %d steps", e.Time())
	}
}

// TestLivelockDetectionIgnoredForRandomizedPolicies: the detector must not
// fire for a policy that reports Deterministic() == false, even if states
// repeat.
func TestLivelockDetectionIgnoredForRandomizedPolicies(t *testing.T) {
	m := mesh.MustNew(1, 4)
	p0 := NewPacket(0, 1, 0)
	p1 := NewPacket(1, 2, 3)
	pol := &testPolicy{
		name: "test-swap-nondet",
		det:  false,
		route: func(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
			for i, p := range ns.Packets {
				if p.Node == 1 {
					out[i] = mesh.DirPlus(0)
				} else {
					out[i] = mesh.DirMinus(0)
				}
			}
		},
	}
	e, err := New(m, pol, []*Packet{p0, p1}, Options{
		Validation:     ValidateBasic,
		DetectLivelock: true,
		MaxSteps:       200,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Livelocked {
		t.Error("livelock reported for a randomized policy")
	}
	if !res.HitMaxSteps {
		t.Error("expected HitMaxSteps")
	}
}

func TestDeterministicReproducibility(t *testing.T) {
	m := mesh.MustNew(2, 8)
	run := func() (int, int64) {
		rng := rand.New(rand.NewSource(7))
		var packets []*Packet
		cnt := map[mesh.NodeID]int{}
		for i := 0; i < 50; i++ {
			src := mesh.NodeID(rng.Intn(m.Size()))
			if cnt[src] >= m.Degree(src) {
				continue
			}
			cnt[src]++
			packets = append(packets, NewPacket(i, src, mesh.NodeID(rng.Intn(m.Size()))))
		}
		e, err := New(m, firstGoodPolicy(), packets, Options{Seed: 99, Validation: ValidateBasic, MaxSteps: 1000})
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Steps, res.TotalDeflections
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 || d1 != d2 {
		t.Errorf("non-reproducible runs: (%d,%d) vs (%d,%d)", s1, d1, s2, d2)
	}
}

func TestPacketString(t *testing.T) {
	p := NewPacket(3, 1, 2)
	if got := p.String(); got != "packet 3 (1->2, at 1)" {
		t.Errorf("String() = %q", got)
	}
	p.ArrivedAt = 5
	if got := p.String(); got != "packet 3 (1->2, arrived t=5)" {
		t.Errorf("String() = %q", got)
	}
	if p.Delay() != 5 {
		t.Errorf("Delay() = %d", p.Delay())
	}
}

func TestMaxStepsDefault(t *testing.T) {
	m := mesh.MustNew(2, 4)
	e, err := New(m, firstGoodPolicy(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.opts.MaxSteps != DefaultMaxSteps {
		t.Errorf("MaxSteps default = %d", e.opts.MaxSteps)
	}
}

func TestEngineAccessors(t *testing.T) {
	m := mesh.MustNew(2, 4)
	pol := firstGoodPolicy()
	p := NewPacket(0, 1, 14)
	e, err := New(m, pol, []*Packet{p}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.Mesh() != m || e.Policy() != pol {
		t.Error("accessors returned wrong objects")
	}
	if len(e.Packets()) != 1 || e.Live() != 1 || e.Done() || e.Livelocked() {
		t.Error("initial engine state wrong")
	}
	if got := e.PacketsAt(1); len(got) != 1 || got[0] != p {
		t.Errorf("PacketsAt(1) = %v", got)
	}
	if got := e.PacketsAt(2); len(got) != 0 {
		t.Errorf("PacketsAt(2) = %v", got)
	}
}
