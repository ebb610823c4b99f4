package hotpotato_test

// Benchmarks for the extension experiments E11-E16 (see DESIGN.md), one
// per reproduced table, mirroring bench_test.go's coverage of E1-E10.

import (
	"math/rand"
	"testing"

	"hotpotato/internal/core"
	"hotpotato/internal/mesh"
	"hotpotato/internal/message"
	"hotpotato/internal/routing"
	"hotpotato/internal/sim"
	"hotpotato/internal/storefwd"
	"hotpotato/internal/structured"
	"hotpotato/internal/trace"
	"hotpotato/internal/traffic"
	"hotpotato/internal/workload"
)

// BenchmarkE11StoreForward times the buffered baseline on the E11 hotspot
// configuration (its most contended cell).
func BenchmarkE11StoreForward(b *testing.B) {
	m := mesh.MustNew(2, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		packets, err := workload.HotSpot(m, 128, 0.5, rng)
		if err != nil {
			b.Fatal(err)
		}
		e, err := storefwd.New(m, packets, storefwd.Options{BufferCap: 2})
		if err != nil {
			b.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.Delivered != res.Total {
			b.Fatal("undelivered")
		}
	}
}

// BenchmarkE12Dynamic times a full generate+drain steady-state run at 10%
// load on the 16x16 mesh.
func BenchmarkE12Dynamic(b *testing.B) {
	m := mesh.MustNew(2, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := traffic.NewBernoulli(0.10, 200)
		if err != nil {
			b.Fatal(err)
		}
		e, err := sim.New(m, core.NewRestrictedPriority(), nil, sim.Options{
			Seed: int64(i), Validation: sim.ValidateGreedy, MaxSteps: 4000,
		})
		if err != nil {
			b.Fatal(err)
		}
		e.SetInjector(src)
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13Hypercube times a full permutation on the 8-cube.
func BenchmarkE13Hypercube(b *testing.B) {
	m := mesh.MustNew(8, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		packets := workload.Permutation(m, rng)
		runOnce(b, m, core.NewFewestGoodFirst(), packets, sim.ValidateGreedy, false)
	}
}

// BenchmarkE14Torus times the torus half of the mesh-vs-torus comparison.
func BenchmarkE14Torus(b *testing.B) {
	m := mesh.MustNewTorus(2, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		packets := freshUniform(b, m, 128, int64(i))
		runOnce(b, m, core.NewRestrictedPriority(), packets, sim.ValidateRestricted, false)
	}
}

// BenchmarkE15SinglePass times the single-pass matching ablation variant.
func BenchmarkE15SinglePass(b *testing.B) {
	m := mesh.MustNew(2, 16)
	mk := func() sim.Policy {
		return routing.NewCustomSinglePass("bench-single-pass", nil, true, routing.DeflectRandom)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		packets, err := workload.FullLoad(m, 2, rng)
		if err != nil {
			b.Fatal(err)
		}
		runOnce(b, m, mk(), packets, sim.ValidateGreedy, false)
	}
}

// BenchmarkE16AdversarialStep times one hill-climbing objective evaluation
// (route a full permutation deterministically), the unit of work of the
// E16 search.
func BenchmarkE16AdversarialStep(b *testing.B) {
	m := mesh.MustNew(2, 10)
	rng := rand.New(rand.NewSource(16))
	perm := rng.Perm(m.Size())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		packets := make([]*sim.Packet, len(perm))
		for j, d := range perm {
			packets[j] = sim.NewPacket(j, mesh.NodeID(j), mesh.NodeID(d))
		}
		runOnce(b, m, core.NewRestrictedPriorityDeterministic(), packets, sim.ValidateRestricted, false)
	}
}

// BenchmarkE17Structured times the two-phase structured comparator on the
// E17 local-traffic cell where the overstructuring penalty is largest.
func BenchmarkE17Structured(b *testing.B) {
	m := mesh.MustNew(2, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		packets, err := workload.LocalRandom(m, 128, 2, rng)
		if err != nil {
			b.Fatal(err)
		}
		runOnce(b, m, structured.NewTwoPhase(), packets, sim.ValidateBasic, false)
	}
}

// BenchmarkTraceRecordVerify times recording plus independent verification
// of a run (the trace substrate's full round trip).
func BenchmarkTraceRecordVerify(b *testing.B) {
	m := mesh.MustNew(2, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		packets := freshUniform(b, m, 128, int64(i))
		e, err := sim.New(m, core.NewRestrictedPriority(), packets, sim.Options{
			Seed: int64(i), Validation: sim.ValidateOff,
		})
		if err != nil {
			b.Fatal(err)
		}
		rec := trace.NewRecorder(m, packets)
		e.AddObserver(rec)
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
		if _, err := rec.Trace().Verify(true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE18PotentialVariant times a tracked d=3 run under the
// class-based spare rules (the E18 design-space cell).
func BenchmarkE18PotentialVariant(b *testing.B) {
	m := mesh.MustNew(3, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		packets, err := workload.UniformRandom(m, m.Size(), rng)
		if err != nil {
			b.Fatal(err)
		}
		e, err := sim.New(m, core.NewFewestGoodFirst(), packets, sim.Options{
			Seed: int64(i), Validation: sim.ValidateGreedy,
		})
		if err != nil {
			b.Fatal(err)
		}
		e.AddObserver(core.NewTracker(m, packets, core.TrackerOptions{BurnAll: true, Burn: 4, Spare0: 4 * 3 * 6}))
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE19Messages times a multi-flit batch (64 messages x 8 flits).
func BenchmarkE19Messages(b *testing.B) {
	m := mesh.MustNew(2, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		msgs, err := message.RandomBatch(m, 64, 8, rng)
		if err != nil {
			b.Fatal(err)
		}
		src, err := message.NewSource(m, msgs)
		if err != nil {
			b.Fatal(err)
		}
		e, err := sim.New(m, core.NewRestrictedPriority(), nil, sim.Options{
			Seed: int64(i), Validation: sim.ValidateGreedy, MaxSteps: 100000,
		})
		if err != nil {
			b.Fatal(err)
		}
		e.SetInjector(src)
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE20Classes times the class-priority continuous run at 20% load.
func BenchmarkE20Classes(b *testing.B) {
	m := mesh.MustNew(2, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := traffic.NewBernoulli(0.20, 150)
		if err != nil {
			b.Fatal(err)
		}
		src.HighFrac = 0.2
		e, err := sim.New(m, routing.NewClassPriority(), nil, sim.Options{
			Seed: int64(i), Validation: sim.ValidateGreedy, MaxSteps: 6000,
		})
		if err != nil {
			b.Fatal(err)
		}
		e.SetInjector(src)
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE21Fairness times the oldest-first fairness run configuration.
func BenchmarkE21Fairness(b *testing.B) {
	m := mesh.MustNew(2, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := traffic.NewBernoulli(0.25, 150)
		if err != nil {
			b.Fatal(err)
		}
		e, err := sim.New(m, routing.NewOldestFirst(), nil, sim.Options{
			Seed: int64(i), Validation: sim.ValidateGreedy, MaxSteps: 8000,
		})
		if err != nil {
			b.Fatal(err)
		}
		e.SetInjector(src)
		if _, err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
