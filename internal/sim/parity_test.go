package sim

import (
	"math/rand"
	"slices"
	"testing"

	"hotpotato/internal/fault"
	"hotpotato/internal/mesh"
)

// noFaultModel installs a failure overlay that never fails anything: the
// engine routes against the overlay's private table (and runs the per-step
// fault hook) while the routed topology stays semantically identical to the
// mesh's shared table — the run must then be bit-identical to one with no
// overlay at all.
type noFaultModel struct{}

func (noFaultModel) Advance(t int, o *mesh.Overlay, rng *rand.Rand) {}

// moveRec is the comparable projection of a Move used to assert that two
// runs took exactly the same per-step move sequence.
type moveRec struct {
	t        int
	id       int
	from, to mesh.NodeID
	dir      mesh.Dir
	adv      bool
}

// recordRun executes a full run and returns the result plus the flattened
// move log.
func recordRun(t *testing.T, m *mesh.Mesh, policy Policy, packets []*Packet, opts Options, overlay bool) (Result, []moveRec) {
	t.Helper()
	e, err := New(m, policy, packets, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if overlay {
		e.SetFaults(noFaultModel{}, FateDrop)
	}
	var log []moveRec
	e.AddObserver(ObserverFunc(func(rec *StepRecord) {
		for i := range rec.Moves {
			mv := &rec.Moves[i]
			log = append(log, moveRec{
				t:    rec.Time,
				id:   mv.Packet.ID,
				from: mv.From,
				to:   mv.To,
				dir:  mv.Dir,
				adv:  mv.Advanced,
			})
		}
	}))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return *res, log
}

// parityPackets builds a deterministic instance: k packets at distinct-ish
// sources (respecting out-degree capacity) with random destinations.
func parityPackets(m *mesh.Mesh, k int, seed int64) []*Packet {
	rng := rand.New(rand.NewSource(seed))
	used := make(map[mesh.NodeID]int)
	var packets []*Packet
	for i := 0; len(packets) < k && i < 4*k; i++ {
		src := mesh.NodeID(rng.Intn(m.Size()))
		if used[src] >= m.Degree(src) {
			continue
		}
		used[src]++
		packets = append(packets, NewPacket(len(packets), src, mesh.NodeID(rng.Intn(m.Size()))))
	}
	return packets
}

func clonePackets(packets []*Packet) []*Packet {
	out := make([]*Packet, len(packets))
	for i, p := range packets {
		out[i] = NewPacket(p.ID, p.Src, p.Dst)
	}
	return out
}

// shuffledTest is a randomized test policy: random assignment of packets to
// free arcs.
type shuffledTest struct{}

func (shuffledTest) Name() string        { return "test-shuffled" }
func (shuffledTest) Deterministic() bool { return false }
func (shuffledTest) Route(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
	var free []mesh.Dir
	for dir := mesh.Dir(0); int(dir) < ns.Mesh.DirCount(); dir++ {
		if ns.HasArc(dir) {
			free = append(free, dir)
		}
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	for i := range out {
		out[i] = free[i]
	}
}

func shuffledPolicy() Policy { return shuffledTest{} }

// TestFastPathParity states "an overlay that never fails anything ≡ no
// overlay": identical (mesh, policy, seed, workload) problems run with and
// without a never-failing fault overlay must produce bit-identical Results
// and per-step move sequences, for a deterministic and a randomized policy.
// Torus shapes are included: their wrap-split good sets are where the table
// layer is easiest to get wrong.
func TestFastPathParity(t *testing.T) {
	meshes := []*mesh.Mesh{
		mesh.MustNew(1, 9),
		mesh.MustNew(2, 8),
		mesh.MustNew(3, 4),
		mesh.MustNewTorus(2, 6),
		mesh.MustNewTorus(2, 7),
		mesh.MustNewTorus(3, 4),
	}
	for _, m := range meshes {
		for _, seed := range []int64{1, 42} {
			packets := parityPackets(m, m.Size()/2+1, seed)
			opts := Options{Seed: seed, Validation: ValidateBasic, MaxSteps: 2000}

			resPlain, logPlain := recordRun(t, m, firstGoodPolicy(), clonePackets(packets), opts, false)
			resOver, logOver := recordRun(t, m, firstGoodPolicy(), clonePackets(packets), opts, true)
			if resPlain != resOver || !slices.Equal(logPlain, logOver) {
				t.Errorf("%v seed %d: never-failing overlay diverged from no overlay (plain %+v, overlay %+v)",
					m, seed, resPlain, resOver)
			}

			// Randomized policy: both runs draw tie-breaks from the
			// per-(seed, step, node) streams, so they too agree bit-for-bit.
			resPlainR, logPlainR := recordRun(t, m, shuffledPolicy(), clonePackets(packets), opts, false)
			resOverR, logOverR := recordRun(t, m, shuffledPolicy(), clonePackets(packets), opts, true)
			if resPlainR != resOverR || !slices.Equal(logPlainR, logOverR) {
				t.Errorf("%v seed %d: randomized run under a never-failing overlay diverged from no overlay", m, seed)
			}
		}
	}
}

// TestFastPathParityRepeatable re-runs one configuration twice to catch
// scratch-reuse bugs that only corrupt a second run through the same
// engine-shaped allocations.
func TestFastPathParityRepeatable(t *testing.T) {
	m := mesh.MustNewTorus(2, 8)
	packets := parityPackets(m, m.Size(), 7)
	opts := Options{Seed: 7, Validation: ValidateBasic, MaxSteps: 2000}
	res1, log1 := recordRun(t, m, firstGoodPolicy(), clonePackets(packets), opts, false)
	res2, log2 := recordRun(t, m, firstGoodPolicy(), clonePackets(packets), opts, false)
	if res1 != res2 || !slices.Equal(log1, log2) {
		t.Errorf("repeat run diverged: %+v vs %+v", res1, res2)
	}
}

// soakInjector keeps every node saturated with fresh traffic.
type soakInjector struct{ stop int }

func (si *soakInjector) Inject(t int, e InjectorHost, rng *rand.Rand) []*Packet {
	if t >= si.stop {
		return nil
	}
	var out []*Packet
	size := e.Mesh().Size()
	for id := 0; id < size; id++ {
		node := mesh.NodeID(id)
		for c := e.InjectionCapacity(node); c > 0; c-- {
			dst := mesh.NodeID(rng.Intn(size))
			out = append(out, NewPacket(e.NextPacketID(), node, dst))
		}
	}
	return out
}

func (si *soakInjector) Exhausted(t int) bool { return t >= si.stop }

// TestIDsMemorySteadyState soaks the engine with continuous saturating
// injection. The engine keeps no per-ID record at all — freshness is the
// nextID watermark — so what must stay bounded is the packets in flight: never
// more than the mesh has arcs, however many were injected over the run.
func TestIDsMemorySteadyState(t *testing.T) {
	const steps = 3000
	m := mesh.MustNew(2, 4)
	e, err := New(m, leanGreedyPolicy{}, nil, Options{Seed: 11, Validation: ValidateGreedy, MaxSteps: steps + 500})
	if err != nil {
		t.Fatal(err)
	}
	e.SetInjector(&soakInjector{stop: steps})
	for !e.Done() || e.Time() < steps {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if e.Live() > m.ArcCount() {
			t.Fatalf("step %d: %d packets live, above the %d-arc capacity", e.Time(), e.Live(), m.ArcCount())
		}
		if e.Time() > steps+400 {
			t.Fatalf("soak did not drain: %d live at step %d", e.Live(), e.Time())
		}
	}
	if e.nextID < 10*m.ArcCount() {
		t.Fatalf("soak too weak to be meaningful: only %d ids ever issued", e.nextID)
	}
}

// leanGreedyPolicy is an allocation-free deterministic test policy: first
// free good arc, then first free arc, tracked in a fixed array.
type leanGreedyPolicy struct{}

func (leanGreedyPolicy) Name() string        { return "test-lean-greedy" }
func (leanGreedyPolicy) Deterministic() bool { return true }
func (leanGreedyPolicy) Route(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
	var taken [2 * mesh.MaxDim]bool
	for i := range ns.Packets {
		for _, g := range ns.Info(i).Good() {
			if !taken[g] {
				out[i] = g
				taken[g] = true
				break
			}
		}
	}
	dirCount := ns.Mesh.DirCount()
	for i := range ns.Packets {
		if out[i] != mesh.NoDir {
			continue
		}
		for d := 0; d < dirCount; d++ {
			if !taken[d] && ns.HasArc(mesh.Dir(d)) {
				out[i] = mesh.Dir(d)
				taken[d] = true
				break
			}
		}
	}
}

// poolInjector injects one packet per step from a preallocated pool, at a
// node that has room, so the injector itself never allocates.
type poolInjector struct {
	pool  []Packet
	batch [1]*Packet
}

func (pi *poolInjector) Exhausted(int) bool { return false }

func (pi *poolInjector) Inject(t int, host InjectorHost, rng *rand.Rand) []*Packet {
	m := host.Mesh()
	src, dst := mesh.NodeID(rng.Intn(m.Size())), mesh.NodeID(rng.Intn(m.Size()))
	if len(pi.pool) == 0 || host.InjectionCapacity(src) == 0 {
		return nil
	}
	p := &pi.pool[0]
	pi.pool = pi.pool[1:]
	*p = Packet{ID: host.NextPacketID(), Src: src, Dst: dst, Node: src, EnteredVia: mesh.NoDir}
	pi.batch[0] = p
	return pi.batch[:]
}

// restrictedFirstTest is a priority policy the kernel routes itself:
// restricted packets first, then by ID; shuffled when shuffle is set.
func restrictedFirstTest(shuffle bool) Policy {
	return NewPriorityPolicy("test-restricted-first", Priority{
		Key: func(_ *Site, p *Packet, good uint16) Key {
			if Restricted(good) {
				return Key{Minor: p.ID}
			}
			return Key{Major: 1, Minor: p.ID}
		},
		Shuffle:       shuffle,
		RandomDeflect: shuffle,
	})
}

// TestStepSteadyStateAllocs asserts the tentpole claim directly: once an
// engine is constructed (and, with an injector or faults, warmed up),
// stepping it allocates nothing — on a dense mesh and torus, on a mesh
// sparse enough that most summary words of the occupancy bitset are empty,
// with packets arriving every step, and with the kernel's own priority
// matching under greedy and restricted validation and on a fault overlay.
func TestStepSteadyStateAllocs(t *testing.T) {
	sparse := mesh.MustNew(2, 128)
	faulty := mesh.MustNew(2, 16)
	var cuts []fault.Event
	for i := 1; i < 15; i += 3 {
		cuts = append(cuts, fault.Event{Time: 0, Kind: fault.LinkDown, Node: faulty.ID([]int{i, i}), Dir: mesh.DirPlus(i % 2)})
	}
	cases := []struct {
		name       string
		m          *mesh.Mesh
		packets    []*Packet
		warmup     int
		inject     bool
		policy     Policy          // nil: leanGreedyPolicy
		validation ValidationLevel // 0: ValidateGreedy
		faults     FaultModel
	}{
		{name: "mesh16", m: mesh.MustNew(2, 16), packets: parityPackets(mesh.MustNew(2, 16), 2*16*16, 3)},
		{name: "torus64", m: mesh.MustNewTorus(2, 64), packets: parityPackets(mesh.MustNewTorus(2, 64), 2*64*64, 3)},
		{name: "sparse-mesh128", m: sparse, packets: []*Packet{
			NewPacket(0, sparse.ID([]int{0, 0}), sparse.ID([]int{127, 127})),
			NewPacket(1, sparse.ID([]int{127, 0}), sparse.ID([]int{0, 127})),
			NewPacket(2, sparse.ID([]int{64, 127}), sparse.ID([]int{64, 0})),
		}},
		{name: "injector", m: mesh.MustNewTorus(2, 16), warmup: 200, inject: true,
			packets: make([]*Packet, 0, 1024)}, // room for every injected packet: e.packets never grows
		{name: "priority-greedy", m: mesh.MustNewTorus(2, 64), packets: parityPackets(mesh.MustNewTorus(2, 64), 2*64*64, 3),
			policy: restrictedFirstTest(true)},
		{name: "priority-restricted", m: mesh.MustNew(2, 16), packets: parityPackets(mesh.MustNew(2, 16), 2*16*16, 3),
			policy: restrictedFirstTest(false), validation: ValidateRestricted},
		{name: "priority-faults", m: faulty, packets: parityPackets(faulty, 2*16*16, 3), warmup: 1,
			policy: restrictedFirstTest(true), validation: ValidateRestricted, faults: fault.NewSchedule(cuts...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pol, lvl := tc.policy, tc.validation
			if pol == nil {
				pol = leanGreedyPolicy{}
			}
			if lvl == ValidateOff {
				lvl = ValidateGreedy
			}
			e, err := New(tc.m, pol, tc.packets, Options{Seed: 3, Validation: lvl})
			if err != nil {
				t.Fatal(err)
			}
			if tc.faults != nil {
				e.SetFaults(tc.faults, FateDrop)
			}
			if tc.inject {
				e.SetInjector(&poolInjector{pool: make([]Packet, 1000)})
			}
			for i := 0; i < tc.warmup; i++ {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if e.Live() == 0 {
				t.Fatal("no packets in flight to step")
			}
			if tc.faults != nil && e.Topology().Degree(faulty.ID([]int{1, 1})) == faulty.Degree(faulty.ID([]int{1, 1})) {
				t.Fatal("the fault overlay masks no arc")
			}
			allocs := testing.AllocsPerRun(40, func() {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state Step allocates %.1f times per call, want 0", allocs)
			}
		})
	}
}
