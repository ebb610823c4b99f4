package shard_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hotpotato/internal/mesh"
	"hotpotato/internal/routing"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// clonePackets deep-copies a packet set so two engines can mutate their own
// copies of the same initial configuration.
func clonePackets(pkts []*sim.Packet) []*sim.Packet {
	out := make([]*sim.Packet, len(pkts))
	for i, p := range pkts {
		ps := sim.CapturePacket(p)
		out[i] = ps.Packet()
	}
	return out
}

// lockstep drives a plain sim.Engine (the reference: randomized policies
// draw from the same per-node streams the shards use) and a sharded engine
// over the same problem one step at a time, requiring
// a bit-identical configuration hash after every step — the package's
// headline parity contract, checked far more stringently than comparing
// final results would.
func lockstep(t *testing.T, m *mesh.Mesh, mk func() sim.Policy, pkts []*sim.Packet, seed int64, g shard.Grid, maxSteps int) {
	t.Helper()
	ref, err := sim.New(m, mk(), clonePackets(pkts), sim.Options{
		Seed: seed, MaxSteps: maxSteps, DetectLivelock: true,
	})
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	defer ref.Close()
	sh, err := shard.New(m, mk(), clonePackets(pkts), shard.Options{
		Grid: g, Seed: seed, MaxSteps: maxSteps, DetectLivelock: true,
	})
	if err != nil {
		t.Fatalf("shard.New: %v", err)
	}
	defer sh.Close()

	if hr, hs := ref.StateHash(), sh.StateHash(); hr != hs {
		t.Fatalf("initial state hash: sim %#x, shard %#x", hr, hs)
	}
	for {
		refRun := ref.Live() > 0 && !ref.Livelocked() && ref.Time() < maxSteps
		shRun := sh.Live() > 0 && !sh.Livelocked() && sh.Time() < maxSteps
		if refRun != shRun {
			t.Fatalf("step %d: sim runnable=%v (live %d, livelock %v), shard runnable=%v (live %d, livelock %v)",
				ref.Time(), refRun, ref.Live(), ref.Livelocked(), shRun, sh.Live(), sh.Livelocked())
		}
		if !refRun {
			break
		}
		if err := ref.Step(); err != nil {
			t.Fatalf("sim step %d: %v", ref.Time(), err)
		}
		if err := sh.Step(); err != nil {
			t.Fatalf("shard step %d: %v", sh.Time(), err)
		}
		if ref.Live() != sh.Live() {
			t.Fatalf("step %d: live count diverged: sim %d, shard %d", ref.Time(), ref.Live(), sh.Live())
		}
		if hr, hs := ref.StateHash(), sh.StateHash(); hr != hs {
			t.Fatalf("step %d: state hash diverged: sim %#x, shard %#x", ref.Time(), hr, hs)
		}
	}

	// Both engines are out of work; their summaries must agree field by field.
	rr, err := ref.Run()
	if err != nil {
		t.Fatalf("sim result: %v", err)
	}
	sr, err := sh.Run()
	if err != nil {
		t.Fatalf("shard result: %v", err)
	}
	if rr.Steps != sr.Steps || rr.Delivered != sr.Delivered || rr.Total != sr.Total ||
		rr.Livelocked != sr.Livelocked || rr.HitMaxSteps != sr.HitMaxSteps ||
		rr.TotalDeflections != sr.TotalDeflections || rr.TotalHops != sr.TotalHops ||
		rr.MaxNodeLoad != sr.MaxNodeLoad || rr.Reroutes != sr.Reroutes {
		t.Fatalf("results diverged:\n  sim   %+v\n  shard %+v", rr, sr)
	}
}

// TestShardParity is the headline contract test: for every combination of
// base topology (mesh, torus, odd-side torus), workload, seed, shard grid
// (including uneven decompositions) and policy class (deterministic and
// randomized), the sharded engine's per-step configuration hashes are
// bit-identical to the single engine's.
func TestShardParity(t *testing.T) {
	bases := []struct {
		name string
		m    *mesh.Mesh
	}{
		{"mesh8", mesh.MustNew(2, 8)},
		{"torus8", mesh.MustNewTorus(2, 8)},
		{"torus9", mesh.MustNewTorus(2, 9)},
	}
	workloads := []struct {
		name string
		gen  func(m *mesh.Mesh, r *rand.Rand) []*sim.Packet
	}{
		{"fullload", func(m *mesh.Mesh, r *rand.Rand) []*sim.Packet {
			pkts, err := workload.FullLoad(m, 2, r)
			if err != nil {
				t.Fatalf("FullLoad: %v", err)
			}
			return pkts
		}},
		{"permutation", func(m *mesh.Mesh, r *rand.Rand) []*sim.Packet {
			return workload.Permutation(m, r)
		}},
	}
	policies := []struct {
		name string
		mk   func() sim.Policy
	}{
		{"greedy-fixed", routing.NewFixedPriority},
		{"greedy-random", routing.NewRandomGreedy},
	}
	grids := []shard.Grid{{P: 1, Q: 1}, {P: 2, Q: 2}, {P: 4, Q: 2}}
	seeds := []int64{1, 7, 42}

	for _, base := range bases {
		for _, wl := range workloads {
			for _, pol := range policies {
				for _, seed := range seeds {
					pkts := wl.gen(base.m, rand.New(rand.NewSource(seed)))
					for _, g := range grids {
						name := fmt.Sprintf("%s/%s/%s/seed%d/%s", base.name, wl.name, pol.name, seed, g)
						t.Run(name, func(t *testing.T) {
							lockstep(t, base.m, pol.mk, pkts, seed, g, 300)
						})
					}
				}
			}
		}
	}
}

// TestShardParityExtremeGrids covers degenerate decompositions: one-column
// and one-row grids (every shard a thin strip, so torus wrap can reenter
// the sending shard) and the maximal side x side grid (every shard one
// node, every move a halo transfer).
func TestShardParityExtremeGrids(t *testing.T) {
	for _, base := range []struct {
		name string
		m    *mesh.Mesh
	}{
		{"mesh6", mesh.MustNew(2, 6)},
		{"torus6", mesh.MustNewTorus(2, 6)},
	} {
		pkts := workload.Permutation(base.m, rand.New(rand.NewSource(3)))
		for _, g := range []shard.Grid{{P: 6, Q: 1}, {P: 1, Q: 6}, {P: 6, Q: 6}, {P: 2, Q: 1}} {
			t.Run(fmt.Sprintf("%s/%s", base.name, g), func(t *testing.T) {
				lockstep(t, base.m, routing.NewRandomGreedy, pkts, 11, g, 300)
			})
		}
	}
}

// bouncerPolicy is a deliberately livelocking deterministic policy: a
// packet always exits back through the arc it entered (first good arc on
// its first step). Maximum-matching greedy policies are hard to livelock on
// small instances, so this adversarial policy pins the detector's parity —
// the shards must see the exact same repeated hash at the exact same step.
type bouncerPolicy struct{}

func (bouncerPolicy) Name() string        { return "bouncer" }
func (bouncerPolicy) Deterministic() bool { return true }
func (bouncerPolicy) Clone() sim.Policy   { return bouncerPolicy{} }
func (bouncerPolicy) Route(ns *sim.NodeState, out []mesh.Dir, _ *rand.Rand) {
	for i, p := range ns.Packets {
		if p.EnteredVia != mesh.NoDir {
			out[i] = p.EnteredVia.Opposite()
		} else {
			out[i] = ns.Info(i).Good()[0]
		}
	}
}

// TestShardLivelockParity pins the bit-identical-livelock requirement
// directly: the sharded run must detect the livelock at the same step as
// the reference (the per-step hash comparison in lockstep subsumes the
// repeated-hash history), and both runs must report Livelocked. The
// packets bounce forever between adjacent nodes — including across shard
// boundaries — so halo transfers participate in the cycle.
func TestShardLivelockParity(t *testing.T) {
	m := mesh.MustNewTorus(2, 4)
	pkts := []*sim.Packet{
		sim.NewPacket(0, m.ID([]int{0, 0}), m.ID([]int{2, 0})),
		sim.NewPacket(1, m.ID([]int{1, 1}), m.ID([]int{3, 1})),
		sim.NewPacket(2, m.ID([]int{3, 2}), m.ID([]int{1, 2})),
	}
	mk := func() sim.Policy { return bouncerPolicy{} }
	for _, g := range []shard.Grid{{P: 2, Q: 2}, {P: 4, Q: 1}} {
		t.Run(g.String(), func(t *testing.T) {
			ref, err := sim.New(m, mk(), clonePackets(pkts), sim.Options{Seed: 5, MaxSteps: 200, DetectLivelock: true})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if r, err := ref.Run(); err != nil || !r.Livelocked {
				t.Fatalf("reference run: livelocked=%v, err=%v (the fixture must livelock)", r.Livelocked, err)
			}
			lockstep(t, m, mk, pkts, 5, g, 200)
		})
	}
}

// TestShardNewRejects covers constructor validation.
func TestShardNewRejects(t *testing.T) {
	m2 := mesh.MustNew(2, 8)
	if _, err := shard.New(m2, nil, nil, shard.Options{}); err == nil {
		t.Error("nil policy: want error")
	}
	if _, err := shard.New(nil, routing.NewRandomGreedy(), nil, shard.Options{}); err == nil {
		t.Error("nil mesh: want error")
	}
	m3 := mesh.MustNew(3, 4)
	if _, err := shard.New(m3, routing.NewRandomGreedy(), nil, shard.Options{}); err == nil {
		t.Error("3-dimensional mesh: want error")
	}
	if _, err := shard.New(m2, routing.NewRandomGreedy(), nil, shard.Options{Grid: shard.Grid{P: 9, Q: 1}}); err == nil {
		t.Error("grid wider than the mesh: want error")
	}
	dup := []*sim.Packet{sim.NewPacket(0, 0, 5), sim.NewPacket(0, 1, 6)}
	if _, err := shard.New(m2, routing.NewRandomGreedy(), dup, shard.Options{}); err == nil {
		t.Error("duplicate packet ids: want error")
	}
	// Corner node 0 has out-degree 2: a third packet there breaks the model.
	crowd := []*sim.Packet{sim.NewPacket(0, 0, 5), sim.NewPacket(1, 0, 6), sim.NewPacket(2, 0, 7)}
	if _, err := shard.New(m2, routing.NewRandomGreedy(), crowd, shard.Options{Grid: shard.Grid{P: 2, Q: 1}}); !errors.Is(err, sim.ErrBadInjection) {
		t.Errorf("three packets at a degree-2 node: err = %v, want ErrBadInjection", err)
	}
	// Every shard routes with its own policy instance, so more than one
	// shard needs a ClonablePolicy; a single shard does not.
	bare := struct{ sim.Policy }{routing.NewRandomGreedy()}
	if _, err := shard.New(m2, bare, nil, shard.Options{Grid: shard.Grid{P: 2, Q: 1}}); !errors.Is(err, sim.ErrBadInjection) {
		t.Errorf("non-clonable policy on 2x1: err = %v, want ErrBadInjection", err)
	}
	one, err := shard.New(m2, bare, nil, shard.Options{})
	if err != nil {
		t.Errorf("non-clonable policy on 1x1: %v", err)
	} else {
		one.Close()
	}
}
