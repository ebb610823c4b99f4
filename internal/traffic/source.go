package traffic

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// DestFunc draws a destination for a packet generated at src. A nil
// DestFunc means uniform over all nodes other than src.
type DestFunc func(src mesh.NodeID, m *mesh.Mesh, rng *rand.Rand) mesh.NodeID

// Gen is one generated (not yet injected) packet: the output unit of a
// Generator, before the source queue and the injection-capacity gate.
type Gen struct {
	Src   mesh.NodeID
	Dst   mesh.NodeID
	Class int
}

// Generator is one traffic process: at every step it decides which packets
// enter the source queues. Implementations must be deterministic given the
// rng (the engine's dedicated injection stream) and must not retain out.
// Generators compose: a Source drains any number of them — one per client,
// tenant or traffic class — into the shared per-node backlogs.
type Generator interface {
	// Generate appends the packets generated at step t on mesh m to out and
	// returns the extended slice. Called once per step, in client order.
	Generate(t int, m *mesh.Mesh, rng *rand.Rand, out []Gen) []Gen
	// Done reports that no packet will ever be generated at or after step t
	// (e.g. the generation window closed). Generators that never stop
	// always return false; the run then ends at the step budget.
	Done(t int) bool
}

// StatefulGenerator is implemented by generators whose behavior depends on
// internal state beyond the injection RNG (renewal clocks, on/off phases,
// token buckets, replay cursors). Source snapshots capture and reinstate
// that state, so checkpoint/resume is exact mid-burst.
type StatefulGenerator interface {
	Generator
	// SnapshotGenerator serializes the generator's internal state.
	SnapshotGenerator() (json.RawMessage, error)
	// RestoreGenerator reinstates state captured by SnapshotGenerator.
	RestoreGenerator(data json.RawMessage) error
}

// Source adapts any set of Generators into a sim.CheckpointableInjector:
// generated packets queue in per-node backlogs and are injected, in node
// order, whenever the hot-potato constraint leaves room. Generation order
// across clients is fixed (the NewSource order), so multi-client traffic is
// deterministic, and the generation time of every packet is recorded for
// end-to-end latency and backlog (saturation) measurement.
type Source struct {
	backlog
	gens  []Generator
	trace *TraceWriter
}

var _ sim.CheckpointableInjector = (*Source)(nil)

// NewSource composes the given generators into one injector. Generation
// runs in argument order each step.
func NewSource(gens ...Generator) (*Source, error) {
	if len(gens) == 0 {
		return nil, fmt.Errorf("traffic: source needs at least one generator")
	}
	for i, g := range gens {
		if g == nil {
			return nil, fmt.Errorf("traffic: nil generator at index %d", i)
		}
	}
	return &Source{gens: gens}, nil
}

// Generators returns the composed generators, in generation order.
func (s *Source) Generators() []Generator { return s.gens }

// SetTrace installs an injection-trace recorder: every injected packet is
// appended as an (step, src, dst, class) event. Recording is orthogonal to
// checkpointing — a resumed run records from the resume point on.
func (s *Source) SetTrace(w *TraceWriter) { s.trace = w }

// Inject implements sim.Injector: run every generator, queue its output in
// the per-node backlogs, then drain the backlogs into the per-node
// injection room in node order.
func (s *Source) Inject(t int, host sim.InjectorHost, rng *rand.Rand) []*sim.Packet {
	m := host.Mesh()
	s.size(m)
	s.arrivals = s.arrivals[:0]
	for _, g := range s.gens {
		s.arrivals = g.Generate(t, m, rng, s.arrivals)
	}
	return s.drain(t, host, s.trace)
}

// Exhausted implements sim.Injector: done once every generator is done and
// the backlogs have drained.
func (s *Source) Exhausted(t int) bool {
	if s.curBacklog > 0 {
		return false
	}
	for _, g := range s.gens {
		if !g.Done(t) {
			return false
		}
	}
	return true
}

// sourceState is the serialized Source: the backlog, then one entry per
// generator (null for stateless ones).
type sourceState struct {
	backlogState
	Gens []json.RawMessage `json:"gens,omitempty"`
}

// SnapshotState implements sim.CheckpointableInjector.
func (s *Source) SnapshotState() ([]byte, error) {
	st := sourceState{backlogState: s.snapshot(), Gens: make([]json.RawMessage, len(s.gens))}
	for i, g := range s.gens {
		if sg, ok := g.(StatefulGenerator); ok {
			raw, err := sg.SnapshotGenerator()
			if err != nil {
				return nil, fmt.Errorf("traffic: snapshot generator %d: %w", i, err)
			}
			st.Gens[i] = raw
		}
	}
	return json.Marshal(&st)
}

// RestoreState implements sim.CheckpointableInjector. The source must be
// freshly built with the same generators (same kinds, same order) as the
// snapshotted one.
func (s *Source) RestoreState(data []byte) error {
	var st sourceState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("traffic: restore source state: %w", err)
	}
	if len(st.Gens) != len(s.gens) {
		return fmt.Errorf("traffic: snapshot has %d generators, source has %d", len(st.Gens), len(s.gens))
	}
	if err := s.restore(st.backlogState); err != nil {
		return err
	}
	for i, g := range s.gens {
		sg, ok := g.(StatefulGenerator)
		if !ok {
			if len(st.Gens[i]) > 0 && string(st.Gens[i]) != "null" {
				return fmt.Errorf("traffic: snapshot carries state for generator %d (%T), which is stateless", i, g)
			}
			continue
		}
		if err := sg.RestoreGenerator(st.Gens[i]); err != nil {
			return fmt.Errorf("traffic: restore generator %d: %w", i, err)
		}
		// Per-node generator state must cover exactly the source's mesh, or
		// the next Generate indexes past it; empty means not yet sized.
		var slots int
		switch g := g.(type) {
		case *Renewal:
			slots = len(g.next)
		case *OnOff:
			slots = len(g.on)
		}
		if slots != 0 && slots != st.Nodes {
			return fmt.Errorf("traffic: generator %d (%T) state covers %d nodes, source has %d", i, g, slots, st.Nodes)
		}
	}
	return nil
}

// uniformDest draws a uniform destination other than src.
func uniformDest(src mesh.NodeID, m *mesh.Mesh, rng *rand.Rand) mesh.NodeID {
	for {
		dst := mesh.NodeID(rng.Intn(m.Size()))
		if dst != src {
			return dst
		}
	}
}

func drawDest(dest DestFunc, src mesh.NodeID, m *mesh.Mesh, rng *rand.Rand) mesh.NodeID {
	if dest != nil {
		return dest(src, m, rng)
	}
	return uniformDest(src, m, rng)
}
