package traffic

import (
	"strings"
	"testing"

	"hotpotato/internal/core"
	"hotpotato/internal/mesh"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
)

// injectorCases builds one fresh Source per stateful-injector configuration;
// every registered generator kind appears. Each call returns new instances
// (sources are stateful, engines must not share them).
func injectorCases(t *testing.T, m *mesh.Mesh) map[string]func() *Source {
	t.Helper()
	// Replay events: a deterministic diagonal trickle.
	var events []TraceEvent
	for s := 0; s < 40; s += 2 {
		events = append(events, TraceEvent{Step: s, Src: mesh.NodeID(s % m.Size()), Dst: mesh.NodeID((s*7 + 3) % m.Size()), Class: 1})
	}
	cases := map[string]func() *Source{}
	build := []struct {
		name string
		gen  func() (Generator, error)
	}{
		{"bernoulli", func() (Generator, error) { return NewBernoulliGen(0.1, 60) }},
		{"poisson", func() (Generator, error) { return NewPoisson(0.1, 60) }},
		{"gamma", func() (Generator, error) { return NewRenewal(KindGamma, 0.1, 2.5, 60) }},
		{"weibull", func() (Generator, error) { return NewRenewal(KindWeibull, 0.1, 0.7, 60) }},
		{"onoff", func() (Generator, error) { return NewOnOff(0.4, 8, 16, 60) }},
		{"diurnal", func() (Generator, error) { return NewDiurnal(0.2, 0.8, 32, 60) }},
		{"adversary", func() (Generator, error) { return NewAdversary(2.5, 6, AxisCol, -1, 60) }},
		{"replay", func() (Generator, error) { return NewReplay(events), nil }},
	}
	for _, b := range build {
		b := b
		cases[b.name] = func() *Source {
			g, err := b.gen()
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewSource(g)
			if err != nil {
				t.Fatal(err)
			}
			return src
		}
	}
	// A multi-client composite, since Source state is per generator.
	cases["composite"] = func() *Source {
		g1, err := NewPoisson(0.05, 60)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := NewAdversary(1.5, 4, AxisRow, 2, 50)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewSource(g1, g2)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	return cases
}

func newEngine(t *testing.T, m *mesh.Mesh, seed int64) *sim.Engine {
	t.Helper()
	e, err := sim.New(m, core.NewRestrictedPriority(), nil, sim.Options{
		Seed: seed, Validation: sim.ValidateGreedy, MaxSteps: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestInjectorCheckpointRestoreParity: for every stateful injector, a run
// snapshotted mid-burst and resumed on a fresh engine + fresh source must
// finish bit-identical (same final state hash, time and delivery count) to
// the uninterrupted run.
func TestInjectorCheckpointRestoreParity(t *testing.T) {
	m, err := mesh.New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	for name, mkSrc := range injectorCases(t, m) {
		t.Run(name, func(t *testing.T) {
			// Reference: uninterrupted run.
			ref := newEngine(t, m, 11)
			ref.SetInjector(mkSrc())
			refRes, err := ref.Run()
			if err != nil {
				t.Fatal(err)
			}

			// Interrupted run: snapshot mid-generation (t=25 is inside every
			// case's generation window), resume on a fresh engine.
			a := newEngine(t, m, 11)
			srcA := mkSrc()
			a.SetInjector(srcA)
			for i := 0; i < 25; i++ {
				if err := a.Step(); err != nil {
					t.Fatal(err)
				}
			}
			snap, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !snap.HasInjector || len(snap.InjectorState) == 0 {
				t.Fatalf("snapshot missing injector state (has=%v, %d bytes)", snap.HasInjector, len(snap.InjectorState))
			}

			b := newEngine(t, m, 11)
			b.SetInjector(mkSrc())
			if err := b.Restore(snap); err != nil {
				t.Fatal(err)
			}
			bRes, err := b.Run()
			if err != nil {
				t.Fatal(err)
			}

			if bRes.Delivered != refRes.Delivered || bRes.Steps != refRes.Steps {
				t.Errorf("resumed run diverged: delivered %d/%d steps %d, want %d/%d steps %d",
					bRes.Delivered, bRes.Total, bRes.Steps, refRes.Delivered, refRes.Total, refRes.Steps)
			}
			if bh, rh := b.StateHash(), ref.StateHash(); bh != rh {
				t.Errorf("final state hash %016x != reference %016x", bh, rh)
			}
		})
	}
}

// TestInjectorShardParity: the sharded engine, fed the same source
// configuration and seed, must reproduce the single engine's run exactly —
// injection is part of the bit-identity contract.
func TestInjectorShardParity(t *testing.T) {
	m, err := mesh.New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := shard.ParseGrid("2x2")
	if err != nil {
		t.Fatal(err)
	}
	for name, mkSrc := range injectorCases(t, m) {
		t.Run(name, func(t *testing.T) {
			// Tie-breaks come from per-(seed, step, node) streams and the
			// engine's own stream feeds injection alone, on both engines.
			single, err := sim.New(m, core.NewRestrictedPriority(), nil, sim.Options{
				Seed: 7, Validation: sim.ValidateGreedy, MaxSteps: 5000,
			})
			if err != nil {
				t.Fatal(err)
			}
			single.SetInjector(mkSrc())
			sres, err := single.Run()
			if err != nil {
				t.Fatal(err)
			}

			se, err := shard.New(m, core.NewRestrictedPriority(), nil, shard.Options{
				Grid: grid, Seed: 7, Validation: sim.ValidateGreedy, MaxSteps: 5000,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer se.Close()
			se.SetInjector(mkSrc())
			shres, err := se.Run()
			if err != nil {
				t.Fatal(err)
			}

			if shres.Delivered != sres.Delivered || shres.Steps != sres.Steps {
				t.Errorf("sharded run diverged: delivered %d steps %d, want %d steps %d",
					shres.Delivered, shres.Steps, sres.Delivered, sres.Steps)
			}
			if sh, uh := se.StateHash(), single.StateHash(); sh != uh {
				t.Errorf("final state hash %016x != single engine %016x", sh, uh)
			}
		})
	}
}

// TestInjectorShardCheckpointParity: snapshot/restore bit-identity under the
// sharded engine — resume mid-burst from a manifest, land on the same hash.
func TestInjectorShardCheckpointParity(t *testing.T) {
	m, err := mesh.New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := shard.ParseGrid("2x2")
	if err != nil {
		t.Fatal(err)
	}
	newShard := func(src *Source) *shard.Engine {
		e, err := shard.New(m, core.NewRestrictedPriority(), nil, shard.Options{
			Grid: grid, Seed: 13, Validation: sim.ValidateGreedy, MaxSteps: 5000,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.SetInjector(src)
		return e
	}
	for name, mkSrc := range injectorCases(t, m) {
		t.Run(name, func(t *testing.T) {
			ref := newShard(mkSrc())
			defer ref.Close()
			refRes, err := ref.Run()
			if err != nil {
				t.Fatal(err)
			}

			a := newShard(mkSrc())
			defer a.Close()
			for i := 0; i < 25; i++ {
				if err := a.Step(); err != nil {
					t.Fatal(err)
				}
			}
			ck, err := a.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !ck.Manifest.HasInjector || len(ck.Manifest.InjectorState) == 0 {
				t.Fatal("manifest missing injector state")
			}

			b := newShard(mkSrc())
			defer b.Close()
			if err := b.Restore(ck); err != nil {
				t.Fatal(err)
			}
			bRes, err := b.Run()
			if err != nil {
				t.Fatal(err)
			}
			if bRes.Delivered != refRes.Delivered || bRes.Steps != refRes.Steps {
				t.Errorf("resumed sharded run diverged: delivered %d steps %d, want %d steps %d",
					bRes.Delivered, bRes.Steps, refRes.Delivered, refRes.Steps)
			}
			if bh, rh := b.StateHash(), ref.StateHash(); bh != rh {
				t.Errorf("final state hash %016x != reference %016x", bh, rh)
			}
		})
	}
}

// TestRestoreRejectsWrongShape: restoring a source with a different
// generator count, or per-node generator state that does not cover the
// source's mesh, is a spec mismatch reported as an error — not silent
// corruption, and not an index panic on the next Generate.
func TestRestoreRejectsWrongShape(t *testing.T) {
	g1, _ := NewPoisson(0.1, 10)
	g2, _ := NewPoisson(0.1, 10)
	two, err := NewSource(g1, g2)
	if err != nil {
		t.Fatal(err)
	}
	state, err := two.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	g3, _ := NewPoisson(0.1, 10)
	one, err := NewSource(g3)
	if err != nil {
		t.Fatal(err)
	}
	if err := one.RestoreState(state); err == nil {
		t.Error("restore with mismatched generator count accepted")
	}

	for name, tc := range map[string]struct {
		gen   func() (Generator, error)
		state string
	}{
		"renewal": {func() (Generator, error) { return NewPoisson(0.1, 10) }, `{"next":[0.5,0.5]}`},
		"onoff":   {func() (Generator, error) { return NewOnOff(0.4, 8, 16, 10) }, `{"on":[true,false]}`},
	} {
		t.Run(name, func(t *testing.T) {
			build := func() *Source {
				g, err := tc.gen()
				if err != nil {
					t.Fatal(err)
				}
				src, err := NewSource(g)
				if err != nil {
					t.Fatal(err)
				}
				return src
			}
			short := `{"nodes":64,"generated":0,"injected":0,"cur_backlog":0,"max_backlog":0,"gens":[` + tc.state + `]}`
			err := build().RestoreState([]byte(short))
			if err == nil || !strings.HasPrefix(err.Error(), "traffic:") {
				t.Errorf("2-node generator state on a 64-node source: got %v, want a traffic: error", err)
			}
			// A source snapshotted before its first Inject has sized nothing.
			unsized, err := build().SnapshotState()
			if err != nil {
				t.Fatal(err)
			}
			src := build()
			if err := src.RestoreState(unsized); err != nil {
				t.Fatalf("unsized state rejected: %v", err)
			}
			e := newEngine(t, mesh.MustNew(2, 8), 3)
			e.SetInjector(src)
			if err := e.Step(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
