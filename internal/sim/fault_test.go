package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"hotpotato/internal/fault"
	"hotpotato/internal/mesh"
)

// randGreedyTest is a randomized greedy test policy: packets take free good
// arcs in random priority order, the rest deflect onto random leftover
// arcs. Single-pass first-fit is Definition-6 greedy (an arc left free at
// the end was free when every deflected packet scanned its good arcs), and
// randomization keeps it livelock-free in practice.
type randGreedyTest struct{}

func (randGreedyTest) Name() string        { return "test-rand-greedy" }
func (randGreedyTest) Deterministic() bool { return false }
func (randGreedyTest) Clone() Policy       { return randGreedyTest{} }
func (randGreedyTest) Route(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
	taken := make(map[mesh.Dir]bool)
	for _, i := range rng.Perm(len(ns.Packets)) {
		g := ns.Info(i).Good()
		rng.Shuffle(len(g), func(x, y int) { g[x], g[y] = g[y], g[x] })
		for _, d := range g {
			if !taken[d] {
				taken[d] = true
				out[i] = d
				break
			}
		}
	}
	var free []mesh.Dir
	for d := mesh.Dir(0); int(d) < ns.Mesh.DirCount(); d++ {
		if !taken[d] && ns.HasArc(d) {
			free = append(free, d)
		}
	}
	rng.Shuffle(len(free), func(x, y int) { free[x], free[y] = free[y], free[x] })
	next := 0
	for i := range out {
		if out[i] == mesh.NoDir {
			out[i] = free[next]
			next++
		}
	}
}

// faultInstance builds a batch with at most one packet per source node, so
// any failure set that keeps every node's degree >= 1 leaves spare
// capacity at t=0.
func faultInstance(m *mesh.Mesh, n int, seed int64) []*Packet {
	r := rand.New(rand.NewSource(seed))
	used := make(map[mesh.NodeID]bool)
	var ps []*Packet
	for len(ps) < n {
		src := mesh.NodeID(r.Intn(m.Size()))
		if used[src] {
			continue
		}
		used[src] = true
		dst := mesh.NodeID(r.Intn(m.Size()))
		for dst == src {
			dst = mesh.NodeID(r.Intn(m.Size()))
		}
		ps = append(ps, NewPacket(len(ps), src, dst))
	}
	return ps
}

// TestFaultLinkCutsSpareCapacityDelivers: interior link cuts that leave
// every node a surviving arc and at most one packet per source must not
// cost a single packet — greedy routing reroutes around the holes.
func TestFaultLinkCutsSpareCapacityDelivers(t *testing.T) {
	m := mesh.MustNew(2, 8)
	sched := fault.NewSchedule(
		fault.Event{Time: 0, Kind: fault.LinkDown, Node: m.ID([]int{2, 2}), Dir: mesh.DirPlus(0)},
		fault.Event{Time: 0, Kind: fault.LinkDown, Node: m.ID([]int{3, 3}), Dir: mesh.DirPlus(1)},
		fault.Event{Time: 0, Kind: fault.LinkDown, Node: m.ID([]int{4, 4}), Dir: mesh.DirPlus(0)},
		fault.Event{Time: 30, Kind: fault.LinkUp, Node: m.ID([]int{2, 2}), Dir: mesh.DirPlus(0)},
	)
	e, err := New(m, randGreedyTest{}, faultInstance(m, 40, 5), Options{
		Seed:       9,
		Validation: ValidateGreedy,
		MaxSteps:   20000,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaults(sched, FateDrop)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != res.Total || res.Dropped != 0 || res.Absorbed != 0 {
		t.Fatalf("delivered %d/%d, dropped %d, absorbed %d — want full delivery",
			res.Delivered, res.Total, res.Dropped, res.Absorbed)
	}
	if res.HitMaxSteps || res.Livelocked {
		t.Fatalf("run did not finish cleanly: %+v", res)
	}
	if res.LinkFailures != 3 || res.NodeFailures != 0 {
		t.Errorf("LinkFailures=%d NodeFailures=%d, want 3, 0", res.LinkFailures, res.NodeFailures)
	}
}

// TestFaultCrashFate: packets caught in a crashing node follow the
// configured fate; packets destined to it are dropped as unreachable.
func TestFaultCrashFate(t *testing.T) {
	m := mesh.MustNew(2, 4)
	x := m.ID([]int{1, 1})
	mk := func() []*Packet {
		return []*Packet{
			NewPacket(0, x, m.ID([]int{3, 3})),
			NewPacket(1, x, m.ID([]int{0, 3})),
			NewPacket(2, m.ID([]int{3, 3}), x),
			NewPacket(3, m.ID([]int{0, 0}), m.ID([]int{0, 3})),
		}
	}
	for _, tc := range []struct {
		fate                     PacketFate
		crash, absorbed, dropped int
	}{
		{FateDrop, 2, 0, 3},
		{FateAbsorb, 0, 2, 1},
	} {
		e, err := New(m, randGreedyTest{}, mk(), Options{Seed: 1, Validation: ValidateBasic, MaxSteps: 1000})
		if err != nil {
			t.Fatal(err)
		}
		e.SetFaults(fault.NewSchedule(fault.Event{Time: 0, Kind: fault.NodeDown, Node: x}), tc.fate)
		res, err := e.Run()
		if err != nil {
			t.Fatalf("fate=%v: %v", tc.fate, err)
		}
		if res.DroppedCrash != tc.crash || res.Absorbed != tc.absorbed || res.Dropped != tc.dropped {
			t.Errorf("fate=%v: crash=%d absorbed=%d dropped=%d, want %d, %d, %d",
				tc.fate, res.DroppedCrash, res.Absorbed, res.Dropped, tc.crash, tc.absorbed, tc.dropped)
		}
		if res.DroppedUnreachable != 1 {
			t.Errorf("fate=%v: DroppedUnreachable=%d, want 1", tc.fate, res.DroppedUnreachable)
		}
		if res.Delivered != 1 {
			t.Errorf("fate=%v: Delivered=%d, want 1 (packet 3 only)", tc.fate, res.Delivered)
		}
		if res.Delivered+res.Dropped+res.Absorbed != res.Total {
			t.Errorf("fate=%v: accounting broken: %+v", tc.fate, res)
		}
		pkts := e.Packets()
		if !pkts[0].Dropped() || pkts[0].Cause != DropCrash || pkts[0].DroppedAt != 0 {
			t.Errorf("fate=%v: packet 0 state %+v, want crash drop at t=0", tc.fate, pkts[0])
		}
		if pkts[2].Cause != DropUnreachable {
			t.Errorf("fate=%v: packet 2 cause %v, want unreachable", tc.fate, pkts[2].Cause)
		}
	}
}

// TestFaultStrandedSheds: a node whose surviving out-degree falls below its
// load sheds the excess deterministically instead of violating the
// hot-potato constraint (or panicking in the assigner).
func TestFaultStrandedSheds(t *testing.T) {
	m := mesh.MustNew(2, 4)
	c := m.ID([]int{1, 1}) // interior: degree 4
	corners := [][]int{{0, 0}, {3, 0}, {0, 3}, {3, 3}}
	var ps []*Packet
	for i, co := range corners {
		ps = append(ps, NewPacket(i, c, m.ID(co)))
	}
	e, err := New(m, randGreedyTest{}, ps, Options{Seed: 2, Validation: ValidateBasic, MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaults(fault.NewSchedule(
		fault.Event{Time: 0, Kind: fault.LinkDown, Node: c, Dir: mesh.DirPlus(0)},
		fault.Event{Time: 0, Kind: fault.LinkDown, Node: c, Dir: mesh.DirPlus(1)},
	), FateDrop)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedStranded != 2 || res.Dropped != 2 {
		t.Fatalf("DroppedStranded=%d Dropped=%d, want 2, 2", res.DroppedStranded, res.Dropped)
	}
	if res.Delivered != 2 || res.Delivered+res.Dropped != res.Total {
		t.Fatalf("Delivered=%d of %d with 2 drops: %+v", res.Delivered, res.Total, res)
	}
	// Excess is shed from the top of the queue: the last-enqueued packets.
	if ps[2].Cause != DropStranded || ps[3].Cause != DropStranded {
		t.Errorf("wrong victims: causes %v %v %v %v", ps[0].Cause, ps[1].Cause, ps[2].Cause, ps[3].Cause)
	}
}

// TestFaultCrashAccountingInvariant: under a probabilistic crash process
// the engine never errors and every packet is exactly one of delivered,
// dropped, absorbed, or still live at the budget.
func TestFaultCrashAccountingInvariant(t *testing.T) {
	m := mesh.MustNew(2, 6)
	crashes, err := fault.NewNodeCrashes(0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	crashes.MaxDown = 5
	e, err := New(m, randGreedyTest{}, faultInstance(m, 20, 3), Options{
		Seed:       4,
		Validation: ValidateBasic,
		MaxSteps:   3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaults(crashes, FateDrop)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered+res.Dropped+res.Absorbed+e.Live() != res.Total {
		t.Fatalf("accounting broken: %+v with %d live", res, e.Live())
	}
	if got := res.DroppedCrash + res.DroppedUnreachable + res.DroppedStranded + res.DroppedInject; got != res.Dropped {
		t.Fatalf("per-cause drops sum to %d, Dropped=%d", got, res.Dropped)
	}
	if res.NodeFailures == 0 {
		t.Error("no node ever crashed at rate 0.01 (suspicious fixture)")
	}
	var arrived, droppedPkts int
	for _, p := range e.Packets() {
		switch {
		case p.Arrived() && p.Dropped():
			t.Fatalf("packet %v both arrived and dropped", p)
		case p.Arrived():
			arrived++
		case p.Dropped():
			droppedPkts++
		}
	}
	if arrived != res.Delivered || droppedPkts != res.Dropped+res.Absorbed {
		t.Fatalf("packet states (%d arrived, %d dropped) disagree with result %+v", arrived, droppedPkts, res)
	}
}

// TestFaultSequenceIndependentOfRouting: the fault sequence depends only on
// (seed, model) — identical under two policies whose routing differs.
func TestFaultSequenceIndependentOfRouting(t *testing.T) {
	m := mesh.MustNew(2, 6)
	countFailures := func(policy Policy) (int, int) {
		flaps, err := fault.NewLinkFlaps(0.01, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(m, policy, faultInstance(m, 15, 2), Options{
			Seed:     13,
			MaxSteps: 1 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.SetFaults(flaps, FateDrop)
		for i := 0; i < 100; i++ {
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return e.Overlay().LinkFailures(), e.Overlay().NodeFailures()
	}
	l0, n0 := countFailures(shuffledPolicy())
	l4, n4 := countFailures(firstGoodPolicy())
	if l0 != l4 || n0 != n4 {
		t.Errorf("fault sequence depends on routing: randomized (%d,%d) vs deterministic (%d,%d)", l0, n0, l4, n4)
	}
	if l0 == 0 {
		t.Error("no link ever flapped in 100 steps at rate 0.01 (suspicious fixture)")
	}
}

// TestFaultReproducible: the same seed reproduces the identical Result,
// faults included.
func TestFaultReproducible(t *testing.T) {
	m := mesh.MustNew(2, 6)
	run := func() *Result {
		flaps, err := fault.NewLinkFlaps(0.005, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		crashes, err := fault.NewNodeCrashes(0.001, 0)
		if err != nil {
			t.Fatal(err)
		}
		crashes.MaxDown = 3
		e, err := New(m, randGreedyTest{}, faultInstance(m, 18, 6), Options{
			Seed:       21,
			Validation: ValidateBasic,
			MaxSteps:   4000,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.SetFaults(fault.Compose(flaps, crashes), FateDrop)
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

// scriptInjector injects a fixed set of packets at given steps.
type scriptInjector struct {
	at   map[int][]*Packet
	last int
}

func (s *scriptInjector) Inject(t int, e InjectorHost, rng *rand.Rand) []*Packet { return s.at[t] }
func (s *scriptInjector) Exhausted(t int) bool                                   { return t > s.last }

// TestFaultInjectionDrops: injecting at a down source or toward a down
// destination is refused gracefully (DropInject), not an error; injection
// capacity reflects the surviving degree.
func TestFaultInjectionDrops(t *testing.T) {
	m := mesh.MustNew(2, 4)
	a := m.ID([]int{1, 1})
	b := m.ID([]int{3, 3})
	c := m.ID([]int{0, 3})
	inj := &scriptInjector{
		at: map[int][]*Packet{1: {
			NewPacket(100, a, c), // source down
			NewPacket(101, b, a), // destination down
			NewPacket(102, b, c), // fine
		}},
		last: 1,
	}
	e, err := New(m, randGreedyTest{}, nil, Options{Seed: 3, Validation: ValidateBasic, MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaults(fault.NewSchedule(fault.Event{Time: 0, Kind: fault.NodeDown, Node: a}), FateDrop)
	e.SetInjector(inj)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedInject != 2 || res.Dropped != 2 {
		t.Fatalf("DroppedInject=%d Dropped=%d, want 2, 2", res.DroppedInject, res.Dropped)
	}
	if res.Delivered != 1 || res.Total != 3 {
		t.Fatalf("Delivered=%d Total=%d, want 1 of 3: %+v", res.Delivered, res.Total, res)
	}
	// Capacity at a crashed node is zero; elsewhere it is the surviving
	// degree minus the load.
	if got := e.InjectionCapacity(a); got != 0 {
		t.Errorf("InjectionCapacity(down node) = %d, want 0", got)
	}
}

// TestFaultReducedCapacityInjectionDrops: an injector that legally fills a
// node's intact degree gets the surplus refused (not errored) when link
// cuts shrink the degree underneath it.
func TestFaultReducedCapacityInjectionDrops(t *testing.T) {
	m := mesh.MustNew(2, 4)
	c := m.ID([]int{1, 1}) // degree 4, cut down to 2
	inj := &scriptInjector{
		at: map[int][]*Packet{1: {
			NewPacket(200, c, m.ID([]int{0, 0})),
			NewPacket(201, c, m.ID([]int{3, 0})),
			NewPacket(202, c, m.ID([]int{0, 3})), // exceeds surviving degree 2
		}},
		last: 1,
	}
	e, err := New(m, randGreedyTest{}, nil, Options{Seed: 5, Validation: ValidateBasic, MaxSteps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaults(fault.NewSchedule(
		fault.Event{Time: 0, Kind: fault.LinkDown, Node: c, Dir: mesh.DirPlus(0)},
		fault.Event{Time: 0, Kind: fault.LinkDown, Node: c, Dir: mesh.DirMinus(0)},
	), FateDrop)
	e.SetInjector(inj)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedInject != 1 || res.Delivered != 2 {
		t.Fatalf("DroppedInject=%d Delivered=%d, want 1, 2: %+v", res.DroppedInject, res.Delivered, res)
	}
}

// TestFaultsDisableLivelockDetection: a topology that mutates mid-run makes
// configuration hashing unsound, so SetFaults must turn the detector off —
// the swap fixture then runs to the step budget instead of "detecting" a
// loop.
func TestFaultsDisableLivelockDetection(t *testing.T) {
	m := mesh.MustNew(1, 4)
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
		MaxSteps:       300,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaults(fault.NewSchedule(), FateDrop)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Livelocked {
		t.Error("livelock reported with a fault model installed")
	}
	if !res.HitMaxSteps {
		t.Errorf("expected HitMaxSteps: %+v", res)
	}
}

// TestFaultInjectorDuplicateIDRejected: reusing a packet ID is an injector
// bug and must stay a hard error, faults or not.
func TestFaultInjectorDuplicateIDRejected(t *testing.T) {
	m := mesh.MustNew(2, 4)
	inj := &scriptInjector{
		at: map[int][]*Packet{
			0: {NewPacket(7, 0, 5)},
			1: {NewPacket(7, 1, 5)},
		},
		last: 1,
	}
	e, err := New(m, randGreedyTest{}, nil, Options{Validation: ValidateBasic, MaxSteps: 100})
	if err != nil {
		t.Fatal(err)
	}
	e.SetInjector(inj)
	_, err = e.Run()
	if !errors.Is(err, ErrBadInjection) {
		t.Fatalf("duplicate injected ID: err = %v, want ErrBadInjection", err)
	}
}
