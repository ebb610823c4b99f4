package traffic

import (
	"math/rand"
	"testing"
	"time"

	"hotpotato/internal/core"
	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// clockedInjector accumulates the wall time spent inside Inject, so the
// benchmark can report the traffic layer's share of a step separately from
// the routing that the same step also pays for.
type clockedInjector struct {
	sim.Injector
	spent time.Duration
}

func (c *clockedInjector) Inject(t int, host sim.InjectorHost, rng *rand.Rand) []*sim.Packet {
	start := time.Now()
	out := c.Injector.Inject(t, host, rng)
	c.spent += time.Since(start)
	return out
}

// BenchmarkSourceInject steps a real engine under a never-ending Poisson
// source, one step per iteration, on both sides of the event-index trade:
// a sparse mesh where almost no node has an arrival (the index must win)
// and E23's dense operating point, where a fifth of the nodes fire every
// step (the index must not lose). ns/op is the whole step, routing
// included; inject-ns/step is the part inside Source.Inject. Buffers warm
// off the clock.
func BenchmarkSourceInject(b *testing.B) {
	for _, bc := range []struct {
		name string
		side int
		rate float64
	}{
		{"sparse-128x128-poisson1e-4", 128, 1e-4},
		{"dense-12x12-poisson0.2", 12, 0.2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m := mesh.MustNew(2, bc.side)
			g, err := NewPoisson(bc.rate, 0)
			if err != nil {
				b.Fatal(err)
			}
			src, err := NewSource(g)
			if err != nil {
				b.Fatal(err)
			}
			e, err := sim.New(m, core.NewRestrictedPriority(), nil, sim.Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			inj := &clockedInjector{Injector: src}
			e.SetInjector(inj)
			step := func() {
				if err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < 500; i++ {
				step()
			}
			inj.spent = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(inj.spent.Nanoseconds())/float64(b.N), "inject-ns/step")
		})
	}
}
