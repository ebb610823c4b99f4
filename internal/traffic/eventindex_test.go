package traffic

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hotpotato/internal/core"
	"hotpotato/internal/mesh"
	"hotpotato/internal/rng"
	"hotpotato/internal/sim"
)

// scanGenerate is Renewal.Generate as it was before the due index: a scan
// of every node's clock, every step. It reads and writes only g.next, and
// is kept as the reference the indexed generator must reproduce draw for
// draw.
func scanGenerate(g *Renewal, t int, m *mesh.Mesh, rng *rand.Rand, out []Gen) []Gen {
	if g.next == nil {
		g.next = make([]float64, m.Size())
		for i := range g.next {
			g.next[i] = g.sample(rng)
		}
	}
	if g.Until > 0 && t >= g.Until {
		return out
	}
	limit := float64(t) + 1
	for node := mesh.NodeID(0); int(node) < m.Size(); node++ {
		for g.next[node] < limit {
			out = append(out, Gen{Src: node, Dst: drawDest(g.Dest, node, m, rng), Class: g.Class})
			g.next[node] += g.sample(rng)
		}
	}
	return out
}

// TestInjectorEventIndexMatchesScan: for every renewal kind, from a mesh
// that almost never fires to several arrivals per node per step, the
// event-indexed generator emits the scan's packets in the scan's order,
// leaves the injection stream in the scan's state after every step — also
// when it is snapshotted mid-run and carried on by another generator, and
// when the first Generate comes late — and serializes to the scan's bytes.
func TestInjectorEventIndexMatchesScan(t *testing.T) {
	m := mesh.MustNew(2, 8)
	const steps, restoreAt = 60, 23
	for _, kind := range []struct {
		name  string
		shape float64
	}{{KindExp, 1}, {KindGamma, 2.5}, {KindWeibull, 0.7}} {
		for _, rate := range []float64{1e-4, 0.05, 0.3, 3} {
			for _, until := range []int{0, 40} {
				for _, start := range []int{0, 9} {
					name := fmt.Sprintf("%s/rate=%v/until=%d/start=%d", kind.name, rate, until, start)
					t.Run(name, func(t *testing.T) {
						build := func() *Renewal {
							g, err := NewRenewal(kind.name, rate, kind.shape, until)
							if err != nil {
								t.Fatal(err)
							}
							return g
						}
						ref, got := build(), build()
						var refSrc, gotSrc rng.SplitMix64
						refSrc.Seed(42)
						gotSrc.Seed(42)
						refRng, gotRng := rand.New(&refSrc), rand.New(&gotSrc)
						total := 0
						for step := start; step < steps; step++ {
							if step == restoreAt {
								state, err := got.SnapshotGenerator()
								if err != nil {
									t.Fatal(err)
								}
								// The restore target has run another stream, so a
								// due index that outlived the restore would show.
								got = build()
								got.Generate(step+5, m, rand.New(rand.NewSource(7)), nil)
								if err := got.RestoreGenerator(state); err != nil {
									t.Fatal(err)
								}
							}
							want := scanGenerate(ref, step, m, refRng, nil)
							have := got.Generate(step, m, gotRng, nil)
							if !slices.Equal(have, want) {
								t.Fatalf("step %d: indexed generator emitted %v, scan %v", step, have, want)
							}
							if gotSrc.State() != refSrc.State() {
								t.Fatalf("step %d: injection stream diverged from the scan's", step)
							}
							refState, _ := ref.SnapshotGenerator()
							gotState, _ := got.SnapshotGenerator()
							if !bytes.Equal(gotState, refState) {
								t.Fatalf("step %d: generator state differs from the scan's:\n%s\n%s", step, gotState, refState)
							}
							total += len(want)
						}
						if rate >= 0.05 && total == 0 {
							t.Error("nothing generated: the comparison is vacuous")
						}
					})
				}
			}
		}
	}
}

// scanSource drives scanGenerate behind the Generator interface, so a whole
// Source can run on the reference.
type scanSource struct{ *Renewal }

func (s scanSource) Generate(t int, m *mesh.Mesh, rng *rand.Rand, out []Gen) []Gen {
	return scanGenerate(s.Renewal, t, m, rng, out)
}

// TestInjectorEventIndexSourceState: through a Source on a real engine, the
// indexed generator's SnapshotState bytes equal the scan's at every step —
// the due index never reaches a checkpoint.
func TestInjectorEventIndexSourceState(t *testing.T) {
	m := mesh.MustNew(2, 8)
	run := func(wrap func(*Renewal) Generator) (*sim.Engine, *Source) {
		g, err := NewRenewal(KindGamma, 0.3, 2.5, 40)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewSource(wrap(g))
		if err != nil {
			t.Fatal(err)
		}
		e, err := sim.New(m, core.NewRestrictedPriority(), nil, sim.Options{Seed: 5, Validation: sim.ValidateGreedy})
		if err != nil {
			t.Fatal(err)
		}
		e.SetInjector(src)
		return e, src
	}
	refEng, refSrc := run(func(g *Renewal) Generator { return scanSource{g} })
	gotEng, gotSrc := run(func(g *Renewal) Generator { return g })
	for step := 0; step < 60; step++ {
		if err := refEng.Step(); err != nil {
			t.Fatal(err)
		}
		if err := gotEng.Step(); err != nil {
			t.Fatal(err)
		}
		want, err := refSrc.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		have, err := gotSrc.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(have, want) {
			t.Fatalf("step %d: source state differs from the scan's:\n%s\n%s", step, have, want)
		}
		if gh, rh := gotEng.StateHash(), refEng.StateHash(); gh != rh {
			t.Fatalf("step %d: state hash %016x, scan %016x", step, gh, rh)
		}
	}
	if refSrc.MaxBacklog() == 0 {
		t.Error("no backlog ever formed: rate too low to exercise the queues")
	}
}
