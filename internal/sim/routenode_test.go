package sim_test

import (
	"math/rand"
	"testing"

	"hotpotato/internal/core"
	"hotpotato/internal/mesh"
	"hotpotato/internal/routing"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// BenchmarkRouteNode times NodeRouter.RouteNode over every occupied node of
// the dense_torus instance (64x64 torus, two packets per node) halfway
// through its run, under the two priority policies the benchmark workloads
// route with. One op is a sweep over those nodes, reported per node as
// ns/node. Every sweep must reproduce the first sweep's directions.
func BenchmarkRouteNode(b *testing.B) {
	for _, mk := range []func() sim.Policy{routing.NewFixedPriority, core.NewRestrictedPriorityDeterministic} {
		pol := mk()
		b.Run(pol.Name(), func(b *testing.B) {
			m := mesh.MustNewTorus(2, 64)
			pkts, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			e, err := sim.New(m, pol, pkts, sim.Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			for e.Time() < 37 {
				if err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
			var nodes []mesh.NodeID
			for id := mesh.NodeID(0); int(id) < m.Size(); id++ {
				if len(e.PacketsAt(id)) > 0 {
					nodes = append(nodes, id)
				}
			}
			r := sim.NewNodeRouter(e.Topology(), mk(), 1, sim.ValidateOff)
			moves := make([]sim.Move, m.DirCount())
			sweep := func() (sum uint64) {
				for _, n := range nodes {
					at := e.PacketsAt(n)
					if err := r.RouteNode(n, e.Time(), at, moves[:len(at)]); err != nil {
						b.Fatal(err)
					}
					for _, mv := range moves[:len(at)] {
						sum = sum*31 + uint64(mv.Dir)
					}
				}
				return sum
			}
			want := sweep()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := sweep(); got != want {
					b.Fatalf("sweep routed differently: %#x, want %#x", got, want)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(nodes)), "ns/node")
		})
	}
}
