// Package traffic provides continuous packet sources for the sim engine's
// injection hook, modeling the steady-state deflection-network regime of
// the studies the paper cites ([GG], [Ma], [ZA]): every node generates
// packets over time, holds them in a local source queue, and injects
// whenever the hot-potato constraint leaves room (a node may never hold
// more packets than its out-degree).
//
// Two layers coexist. Bernoulli is the original standalone injector (fixed
// per-node rate, optional hot-spot destinations and QoS split). The
// Generator/Source layer composes richer processes — renewal interarrivals
// (Renewal: Poisson/Gamma/Weibull), bursty and diurnal client profiles
// (OnOff, Diurnal), a (ρ,σ)-admissible adversary (Adversary), and trace
// replay (Replay) — behind one sim.CheckpointableInjector, so multi-client
// workloads snapshot/restore exactly and run bit-identically on the single
// and sharded engines. Both layers queue and drain through the one backlog
// type, whose per-step cost follows the arrivals and the backlogged nodes,
// not the mesh.
//
// Sources record the generation time of every packet, so end-to-end
// latency (source queueing + network time) and backlog growth can be
// measured; the load at which the backlog stops being stable is the
// network's saturation throughput.
package traffic

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// Bernoulli is a continuous source: at every step, every node generates a
// packet with probability Rate, destined to a node drawn by Dest. It
// implements sim.Injector and is deterministic given the engine RNG.
type Bernoulli struct {
	// Rate is the per-node per-step generation probability in [0, 1].
	Rate float64
	// Dest draws a destination for a packet generated at src. Nil means
	// uniform over all nodes other than src.
	Dest func(src mesh.NodeID, m *mesh.Mesh, rng *rand.Rand) mesh.NodeID
	// Until stops generation at this step (0 = never stop); after it, the
	// network and source queues drain, which is how experiments terminate.
	Until int
	// HighFrac marks this fraction of generated packets as traffic class 1
	// (the rest stay class 0), for QoS experiments with class-priority
	// policies. Zero disables.
	HighFrac float64

	backlog
}

var _ sim.CheckpointableInjector = (*Bernoulli)(nil)

// NewBernoulli returns a source with uniform destinations.
func NewBernoulli(rate float64, until int) (*Bernoulli, error) {
	if rate < 0 || rate > 1 {
		return nil, fmt.Errorf("traffic: rate %v outside [0, 1]", rate)
	}
	return &Bernoulli{Rate: rate, Until: until}, nil
}

// Inject implements sim.Injector: one generation draw per node, in node
// order, then drain the source queues into the nodes' free slots.
func (b *Bernoulli) Inject(t int, e sim.InjectorHost, rng *rand.Rand) []*sim.Packet {
	m := e.Mesh()
	b.size(m)
	b.arrivals = b.arrivals[:0]
	if b.Until == 0 || t < b.Until {
		for node := mesh.NodeID(0); int(node) < m.Size(); node++ {
			if rng.Float64() >= b.Rate {
				continue
			}
			dst := b.drawDest(node, m, rng)
			class := 0
			if b.HighFrac > 0 && rng.Float64() < b.HighFrac {
				class = 1
			}
			b.arrivals = append(b.arrivals, Gen{Src: node, Dst: dst, Class: class})
		}
	}
	return b.drain(t, e, nil)
}

func (b *Bernoulli) drawDest(src mesh.NodeID, m *mesh.Mesh, rng *rand.Rand) mesh.NodeID {
	if b.Dest != nil {
		return b.Dest(src, m, rng)
	}
	for {
		dst := mesh.NodeID(rng.Intn(m.Size()))
		if dst != src {
			return dst
		}
	}
}

// Exhausted implements sim.Injector: the source is done once its
// generation window has closed and its backlog has drained.
func (b *Bernoulli) Exhausted(t int) bool {
	return b.Until > 0 && t >= b.Until && b.curBacklog == 0
}

// SnapshotState implements sim.CheckpointableInjector.
func (b *Bernoulli) SnapshotState() ([]byte, error) {
	st := b.snapshot()
	return json.Marshal(&st)
}

// RestoreState implements sim.CheckpointableInjector. The receiver must be
// configured (Rate, Dest, Until, HighFrac) like the snapshotted source.
func (b *Bernoulli) RestoreState(data []byte) error {
	var st backlogState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("traffic: restore bernoulli state: %w", err)
	}
	return b.restore(st)
}

// HotSpotDest returns a Dest function that targets `hot` with probability
// frac and a uniform node otherwise — the hot-spot traffic of [ZA].
func HotSpotDest(hot mesh.NodeID, frac float64) func(mesh.NodeID, *mesh.Mesh, *rand.Rand) mesh.NodeID {
	return func(src mesh.NodeID, m *mesh.Mesh, rng *rand.Rand) mesh.NodeID {
		if rng.Float64() < frac && hot != src {
			return hot
		}
		for {
			dst := mesh.NodeID(rng.Intn(m.Size()))
			if dst != src {
				return dst
			}
		}
	}
}
