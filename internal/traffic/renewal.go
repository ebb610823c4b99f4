package traffic

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"hotpotato/internal/mesh"
)

// Interarrival distributions for Renewal sources. All are normalized so
// that the mean interarrival time is 1/rate steps, i.e. rate is always the
// mean arrivals per node per step regardless of the distribution shape.
const (
	// KindExp is exponential interarrivals: the discrete-time Poisson
	// process (memoryless, coefficient of variation 1).
	KindExp = "exp"
	// KindGamma is Gamma(shape) interarrivals: shape > 1 is smoother than
	// Poisson, shape < 1 burstier.
	KindGamma = "gamma"
	// KindWeibull is Weibull(shape) interarrivals: heavy-tailed bursts for
	// shape < 1, aging sources for shape > 1.
	KindWeibull = "weibull"
)

// minInterarrival floors every sampled gap so a pathological draw (underflow
// to zero) can never spin the per-step arrival loop forever.
const minInterarrival = 1e-6

// Renewal generates traffic as an independent renewal process per node:
// each node draws successive interarrival times from the configured
// distribution and emits one packet per arrival epoch. This is the
// ServeGen-style generative arrival model — Poisson is the memoryless
// baseline, Gamma and Weibull bend the burstiness knob either way while
// holding the mean rate fixed.
type Renewal struct {
	// Kind selects the interarrival distribution (KindExp, KindGamma,
	// KindWeibull).
	Kind string
	// Rate is the mean arrivals per node per step (> 0).
	Rate float64
	// Shape is the Gamma/Weibull shape parameter (> 0; ignored by KindExp).
	Shape float64
	// Until stops generation at this step (0 = never stop).
	Until int
	// Class tags every generated packet (tenant/QoS class).
	Class int
	// Dest draws destinations; nil means uniform over other nodes.
	Dest DestFunc

	scale float64   // precomputed distribution scale for the mean-1/rate normalization
	next  []float64 // per-node next arrival epoch, lazily sized to the mesh

	// due indexes next by the step each epoch falls in, so Generate visits
	// only the nodes that fire. It is derived from next — never serialized,
	// rebuilt whenever it does not cover next (first use, after a restore).
	due   dueHeap
	ready []mesh.NodeID // scratch: the nodes firing this step
}

var _ StatefulGenerator = (*Renewal)(nil)

// NewRenewal builds a renewal generator; see the Kind constants. rate must
// be positive and shape positive for the shaped distributions.
func NewRenewal(kind string, rate, shape float64, until int) (*Renewal, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("traffic: renewal rate %v must be positive", rate)
	}
	if until < 0 {
		return nil, fmt.Errorf("traffic: renewal until %d must be >= 0", until)
	}
	g := &Renewal{Kind: kind, Rate: rate, Shape: shape, Until: until}
	switch kind {
	case KindExp:
		g.Shape = 1
		g.scale = 1 / rate
	case KindGamma:
		if shape <= 0 {
			return nil, fmt.Errorf("traffic: gamma shape %v must be positive", shape)
		}
		// Gamma(shape, 1) has mean shape; divide by shape*rate for mean 1/rate.
		g.scale = 1 / (shape * rate)
	case KindWeibull:
		if shape <= 0 {
			return nil, fmt.Errorf("traffic: weibull shape %v must be positive", shape)
		}
		// Weibull(shape, scale) has mean scale*Gamma(1+1/shape).
		g.scale = 1 / (rate * math.Gamma(1+1/shape))
	default:
		return nil, fmt.Errorf("traffic: unknown renewal kind %q (have: %s, %s, %s)", kind, KindExp, KindGamma, KindWeibull)
	}
	return g, nil
}

// NewPoisson is the Poisson (exponential-interarrival) renewal source.
func NewPoisson(rate float64, until int) (*Renewal, error) {
	return NewRenewal(KindExp, rate, 1, until)
}

func (g *Renewal) sample(rng *rand.Rand) float64 {
	var x float64
	switch g.Kind {
	case KindGamma:
		x = sampleGamma(rng, g.Shape) * g.scale
	case KindWeibull:
		x = g.scale * math.Pow(-math.Log(1-rng.Float64()), 1/g.Shape)
	default:
		x = rng.ExpFloat64() * g.scale
	}
	if x < minInterarrival {
		x = minInterarrival
	}
	return x
}

// sampleGamma draws Gamma(shape, 1) via Marsaglia–Tsang, deterministic
// given the rng; shapes below 1 use the standard U^(1/shape) boost.
func sampleGamma(rng *rand.Rand, shape float64) float64 {
	if shape < 1 {
		u := rng.Float64()
		return sampleGamma(rng, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Generate implements Generator: every node emits one packet per renewal
// epoch that falls inside [t, t+1), in node order. Only the nodes the due
// index reports are visited, so a step costs O(arrivals · log nodes); the
// draws and their order are those of a scan over every node's clock.
func (g *Renewal) Generate(t int, m *mesh.Mesh, rng *rand.Rand, out []Gen) []Gen {
	if g.next == nil {
		g.next = make([]float64, m.Size())
		for i := range g.next {
			g.next[i] = g.sample(rng)
		}
	}
	if g.Until > 0 && t >= g.Until {
		return out
	}
	if len(g.due) != len(g.next) {
		g.due = slices.Grow(g.due[:0], len(g.next))
		for node, at := range g.next {
			g.due = append(g.due, dueAt(mesh.NodeID(node), at))
		}
		g.due.init()
	}
	// The heap yields (step, node) order, which is node order unless some
	// clock is more than a step behind (a source installed mid-run).
	g.ready = g.ready[:0]
	for len(g.due) > 0 && g.due[0].step() <= t {
		g.ready = append(g.ready, g.due.pop().node())
	}
	if !slices.IsSorted(g.ready) {
		slices.Sort(g.ready)
	}
	limit := float64(t) + 1
	for _, node := range g.ready {
		for g.next[node] < limit {
			out = append(out, Gen{Src: node, Dst: drawDest(g.Dest, node, m, rng), Class: g.Class})
			g.next[node] += g.sample(rng)
		}
		g.due.push(dueAt(node, g.next[node]))
	}
	return out
}

// dueKey files one node's next arrival epoch under the step it falls in:
// the step in the high half, the node in the low half, so integer order is
// (step, node) order. Steps are clamped to [0, farStep]: every t reaches
// step 0, and a node filed at farStep too early has nothing to emit when
// Generate gets there and is filed again, so the emitted stream never
// depends on the clamp.
type dueKey uint64

const farStep = 1<<32 - 1

func dueAt(node mesh.NodeID, at float64) dueKey {
	step := uint64(farStep)
	if at < farStep {
		step = uint64(max(at, 0))
	}
	return dueKey(step<<32 | uint64(uint32(node)))
}

func (k dueKey) step() int         { return int(k >> 32) }
func (k dueKey) node() mesh.NodeID { return mesh.NodeID(uint32(k)) }

// dueHeap is a binary min-heap of dueKey. It is typed rather than a
// container/heap.Interface so push and pop do not box a key per arrival.
type dueHeap []dueKey

func (h dueHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *dueHeap) push(k dueKey) {
	s := append(*h, k)
	*h = s
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent] <= s[i] {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *dueHeap) pop() dueKey {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	s.down(0)
	return top
}

func (h dueHeap) down(i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && h[l] < h[least] {
			least = l
		}
		if r := 2*i + 2; r < len(h) && h[r] < h[least] {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// Done implements Generator.
func (g *Renewal) Done(t int) bool { return g.Until > 0 && t >= g.Until }

type renewalState struct {
	Next []float64 `json:"next,omitempty"`
}

// SnapshotGenerator implements StatefulGenerator: the per-node renewal
// clocks (float64s round-trip exactly through JSON).
func (g *Renewal) SnapshotGenerator() (json.RawMessage, error) {
	return json.Marshal(renewalState{Next: g.next})
}

// RestoreGenerator implements StatefulGenerator.
func (g *Renewal) RestoreGenerator(data json.RawMessage) error {
	var st renewalState
	if len(data) > 0 {
		if err := json.Unmarshal(data, &st); err != nil {
			return err
		}
	}
	g.next = st.Next
	g.due = g.due[:0]
	return nil
}
