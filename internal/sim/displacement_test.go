package sim

import (
	"math/rand"
	"testing"
	"unsafe"

	"hotpotato/internal/mesh"
)

// TestPacketSize pins sim.Packet at 96 bytes, the size class it has always
// had. The router reads every live packet every step, so the size is a
// memory-traffic budget: a carried displacement appended at 112 bytes read
// 0.96–1.00× on the dense-torus benchmark, and as [8]int32 at 128 bytes
// 0.92×, where packed into 96 bytes it read 1.03×. A field that crosses the
// size class must show up here, not in the benchmark.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 96 {
		t.Fatalf("sim.Packet is %d bytes, want 96", got)
	}
}

// checkLocated requires every packet queued in e to carry the displacement
// the coordinate rows give (modulo the side, axis by axis), so that the
// kernel's mask, DispGood on it, equals GoodMask from the coordinates; and
// that the neighbour of the packet's node in every direction — a stride on
// a mesh — is the one the per-node definition gives, wherever the table has
// the arc.
func checkLocated(t *testing.T, where string, e *Engine) {
	t.Helper()
	for _, node := range e.q.Active() {
		for _, p := range e.q.At(int(node)) {
			checkPacketLocated(t, where, e.mesh, e.topo, p)
		}
	}
}

func checkPacketLocated(t *testing.T, where string, m *mesh.Mesh, tab *mesh.Tables, p *Packet) {
	t.Helper()
	want := tab.Disp(p.Node, p.Dst)
	for a := 0; a < m.Dim(); a++ {
		if (int64(p.disp[a])-int64(want[a]))%int64(m.Side()) != 0 {
			t.Fatalf("%s: %v: packet %d at %d for %d carries %v, coordinates give %v", where, m, p.ID, p.Node, p.Dst, p.disp, want)
		}
	}
	if got, want := tab.DispGood(p.Node, &p.disp), tab.GoodMask(p.Node, p.Dst); got != want {
		t.Fatalf("%s: %v: packet %d at %d for %d: kernel mask %b, GoodMask %b", where, m, p.ID, p.Node, p.Dst, got, want)
	}
	for d := 0; d < m.DirCount(); d++ {
		dir := mesh.Dir(d)
		got, ok := tab.Neighbor(p.Node, dir)
		want, wok := m.Neighbor(p.Node, dir)
		if !tab.HasArc(p.Node, dir) {
			want, wok = p.Node, false
		}
		if got != want || ok != wok {
			t.Fatalf("%s: %v: node %d dir %v: Neighbor %d %v, want %d %v", where, m, p.Node, dir, got, ok, want, wok)
		}
	}
}

// trickleInjector injects one packet at a random node with room every step
// before stop, from the engine's injection stream, so a restored engine
// injects the same packets.
type trickleInjector struct{ stop int }

func (ti trickleInjector) Inject(t int, host InjectorHost, rng *rand.Rand) []*Packet {
	if t >= ti.stop {
		return nil
	}
	size := host.Mesh().Size()
	src, dst := mesh.NodeID(rng.Intn(size)), mesh.NodeID(rng.Intn(size))
	if host.InjectionCapacity(src) == 0 {
		return nil
	}
	return []*Packet{NewPacket(host.NextPacketID(), src, dst)}
}

func (ti trickleInjector) Exhausted(t int) bool { return t >= ti.stop }

// TestCarriedDisplacement walks random runs on meshes and tori of dimension
// 1–4, with and without link flaps (dead arcs) and injection, and checks
// every queued packet after admission and after every step (checkLocated).
// Mid-run the state goes through Snapshot + Restore and through
// AppendBinary + RestoreBinary into fresh engines, which must carry the same
// displacements and step on with the original's state hash.
func TestCarriedDisplacement(t *testing.T) {
	for dim := 1; dim <= 4; dim++ {
		side := []int{0, 9, 5, 4, 3}[dim]
		for variant := 0; variant < 4; variant++ {
			wrap, faults := variant&1 != 0, variant&2 != 0
			m := mesh.MustNew(dim, side)
			if wrap {
				m = mesh.MustNewTorus(dim, side)
			}
			seed := int64(10*dim + variant)
			policy := func() Policy { return restrictedFirstTest(true) }
			if variant == 1 {
				policy = shuffledPolicy
			}
			build := func(packets []*Packet) *Engine {
				e, err := New(m, policy(), packets, Options{Seed: seed, MaxSteps: 400, Validation: ValidateBasic})
				if err != nil {
					t.Fatal(err)
				}
				if faults {
					e.SetFaults(flapModel{rate: 0.02, repair: 0.3}, FateDrop)
				}
				e.SetInjector(trickleInjector{stop: 30})
				return e
			}
			e := build(faultInstance(m, m.Size()/2, seed))
			where := m.String()
			checkLocated(t, where+" admitted", e)
			for e.runnable() && e.Time() < 12 {
				if err := e.Step(); err != nil {
					t.Fatal(err)
				}
				checkLocated(t, where, e)
			}
			snap, err := e.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			bin, err := e.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			viaSnap, viaBin := build(nil), build(nil)
			if err := viaSnap.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if err := viaBin.RestoreBinary(bin); err != nil {
				t.Fatal(err)
			}
			checkLocated(t, where+" restored", viaSnap)
			checkLocated(t, where+" restored from bytes", viaBin)
			for e.runnable() {
				for _, r := range []*Engine{e, viaSnap, viaBin} {
					if err := r.Step(); err != nil {
						t.Fatal(err)
					}
				}
				checkLocated(t, where, e)
				checkLocated(t, where+" after Restore", viaSnap)
				checkLocated(t, where+" after RestoreBinary", viaBin)
				if h := e.StateHash(); viaSnap.StateHash() != h || viaBin.StateHash() != h {
					t.Fatalf("%s: restored engines diverged at step %d", where, e.Time())
				}
			}
			if e.Time() < 13 {
				t.Fatalf("%s: the run ended at step %d, before the restore", where, e.Time())
			}
		}
	}
}
