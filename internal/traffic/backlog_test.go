package traffic

import (
	"math/rand"
	"reflect"
	"testing"

	"hotpotato/internal/core"
	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// tally counts, per source node, what a generator emitted; against the
// packets Inject returned it says how long every source queue must be.
type tally struct {
	Generator
	emitted map[mesh.NodeID]int
}

func (g *tally) Generate(t int, m *mesh.Mesh, rng *rand.Rand, out []Gen) []Gen {
	from := len(out)
	out = g.Generator.Generate(t, m, rng, out)
	for _, gp := range out[from:] {
		g.emitted[gp.Src]++
	}
	return out
}

// backlogChecker wraps an injector and, after every Inject, holds its
// backlog to the invariants the drain relies on.
type backlogChecker struct {
	t        *testing.T
	inner    sim.CheckpointableInjector
	b        *backlog
	fresh    func() (sim.CheckpointableInjector, *backlog)
	emitted  map[mesh.NodeID]int // nil when generation is not observable
	injected map[mesh.NodeID]int
	peak     int
}

func (c *backlogChecker) Exhausted(t int) bool { return c.inner.Exhausted(t) }

func (c *backlogChecker) Inject(t int, host sim.InjectorHost, rng *rand.Rand) []*sim.Packet {
	out := c.inner.Inject(t, host, rng)
	for _, p := range out {
		c.injected[p.Src]++
	}

	sum := 0
	for i, nq := range c.b.busy {
		if len(nq.q) == 0 {
			c.t.Fatalf("step %d: node %d is tracked with an empty queue", t, nq.node)
		}
		if i > 0 && c.b.busy[i-1].node >= nq.node {
			c.t.Fatalf("step %d: tracked nodes out of order: %d before %d", t, c.b.busy[i-1].node, nq.node)
		}
		if c.emitted != nil && len(nq.q) != c.emitted[nq.node]-c.injected[nq.node] {
			c.t.Fatalf("step %d: node %d queues %d packets, generated %d - injected %d",
				t, nq.node, len(nq.q), c.emitted[nq.node], c.injected[nq.node])
		}
		sum += len(nq.q)
	}
	if sum != c.b.Backlog() {
		c.t.Fatalf("step %d: queues hold %d packets, Backlog() says %d", t, sum, c.b.Backlog())
	}
	if c.emitted != nil {
		// Every queue is the right length and they sum to generated minus
		// injected, so no node with waiting packets is missing from the set.
		owed := 0
		for node, n := range c.emitted {
			owed += n - c.injected[node]
		}
		if owed != sum {
			c.t.Fatalf("step %d: %d packets generated but not injected, %d queued", t, owed, sum)
		}
	}
	c.peak = max(c.peak, len(c.b.busy))

	state, err := c.inner.SnapshotState()
	if err != nil {
		c.t.Fatal(err)
	}
	twin, tb := c.fresh()
	if err := twin.RestoreState(state); err != nil {
		c.t.Fatalf("step %d: restore: %v", t, err)
	}
	if len(c.b.busy)+len(tb.busy) > 0 && !reflect.DeepEqual(tb.busy, c.b.busy) {
		c.t.Fatalf("step %d: restored backlog set %v, want %v", t, tb.busy, c.b.busy)
	}
	return out
}

// TestBacklogSetInvariant: under overload, after every Inject, the tracked
// set is exactly the nodes with a non-empty queue, in ascending order, the
// queue lengths sum to Backlog(), and a restore from SnapshotState rebuilds
// the same set — for Source (uniform overload, alone and composed with the
// column adversary) and for the standalone Bernoulli.
func TestBacklogSetInvariant(t *testing.T) {
	source := func(gens ...func() (Generator, error)) func(*backlogChecker) {
		return func(c *backlogChecker) {
			c.emitted = map[mesh.NodeID]int{}
			build := func(wrap bool) *Source {
				var gs []Generator
				for _, gen := range gens {
					g, err := gen()
					if err != nil {
						c.t.Fatal(err)
					}
					if wrap {
						g = &tally{Generator: g, emitted: c.emitted}
					}
					gs = append(gs, g)
				}
				src, err := NewSource(gs...)
				if err != nil {
					c.t.Fatal(err)
				}
				return src
			}
			src := build(true)
			c.inner, c.b = src, &src.backlog
			c.fresh = func() (sim.CheckpointableInjector, *backlog) {
				s := build(false)
				return s, &s.backlog
			}
		}
	}
	poisson := func() (Generator, error) { return NewPoisson(0.5, 80) }
	for name, setup := range map[string]func(*backlogChecker){
		"source-poisson": source(poisson),
		// The adversary draws its sources at random, so the step's arrivals
		// reach the backlog out of node order and from two generators.
		"source-poisson+adversary": source(poisson, func() (Generator, error) {
			return NewAdversary(3, 8, AxisCol, -1, 80)
		}),
		"bernoulli": func(c *backlogChecker) {
			build := func() (sim.CheckpointableInjector, *backlog) {
				b, err := NewBernoulli(0.5, 80)
				if err != nil {
					c.t.Fatal(err)
				}
				return b, &b.backlog
			}
			c.inner, c.b = build()
			c.fresh = build
		},
	} {
		t.Run(name, func(t *testing.T) {
			c := &backlogChecker{t: t, injected: map[mesh.NodeID]int{}}
			setup(c)
			e, err := sim.New(mesh.MustNew(2, 8), core.NewRestrictedPriority(), nil, sim.Options{
				Seed: 9, Validation: sim.ValidateGreedy, MaxSteps: 5000,
			})
			if err != nil {
				t.Fatal(err)
			}
			e.SetInjector(c)
			if _, err := e.Run(); err != nil {
				t.Fatal(err)
			}
			if c.peak == 0 || c.b.Backlog() != 0 {
				t.Errorf("peak of %d backlogged nodes, %d packets left: want a backlog that forms and drains",
					c.peak, c.b.Backlog())
			}
		})
	}
}
