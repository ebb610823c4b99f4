package shard

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hotpotato/internal/mesh"
	"hotpotato/internal/routing"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// fullLoadRef is a full-load routing problem on a side×side torus and a
// fresh single engine over it.
func fullLoadRef(t testing.TB, side int, policy sim.Policy, seed int64) (*mesh.Mesh, *sim.Engine) {
	t.Helper()
	m := mesh.MustNewTorus(2, side)
	pkts, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.New(m, policy, pkts, sim.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return m, e
}

// loadFrom loads every shard of n from the single engine's configuration,
// in the order LoadShard wants: ascending nodes, queue order within one.
func loadFrom(t testing.TB, n *Node, e *sim.Engine) {
	t.Helper()
	parts := make([][]sim.PacketState, n.pt.grid.Count())
	for id := 0; id < e.Mesh().Size(); id++ {
		for _, p := range e.PacketsAt(mesh.NodeID(id)) {
			o := n.pt.owner(p.Node)
			parts[o] = append(parts[o], sim.CapturePacket(p))
		}
	}
	for _, idx := range n.owned {
		if err := n.LoadShard(idx, parts[idx]); err != nil {
			t.Fatal(err)
		}
	}
}

// nodeHash folds the live packets of a node hosting every shard in global
// node order: sim.Engine.StateHash of the same configuration.
func nodeHash(n *Node) uint64 {
	h := sim.ConfigHashSeed
	for id := 0; id < n.m.Size(); id++ {
		s := n.shards[n.pt.owner(mesh.NodeID(id))]
		for _, p := range s.q.At(s.sub.LocalID(mesh.NodeID(id))) {
			h = sim.ConfigHashPacket(h, p)
		}
	}
	return h
}

// overWire is what the dshard wire does to Route's buckets: every move
// reaches its receiver as a packet of the node's own, filled from the
// sender's state, never as the sender's object.
func overWire(n *Node, out []Bucket) []Bucket {
	in := make([]Bucket, len(out))
	for i, b := range out {
		in[i] = Bucket{From: b.From, To: b.To, Moves: append([]sim.Move(nil), b.Moves...)}
		for j := range in[i].Moves {
			p := n.Recycled()
			ps := sim.CapturePacket(b.Moves[j].Packet)
			ps.Fill(p)
			in[i].Moves[j].Packet = p
		}
	}
	return in
}

// TestNodeRecyclesOnlyDeadPackets steps a Node the way a dshard worker does
// — buckets over a simulated wire, ApplyArrived, then Release — and checks
// after every step that no released packet is reachable from a queue, an
// internal list or an egress bucket, that none is released twice, and that
// the configuration hash equals the single engine's. A rollback (LoadShard
// of every shard from a part captured earlier) lands right after a
// speculative Route, as a recovering coordinator's LOAD does. On the 3x3
// grid boundary shards merge five lists; on the 2x1 torus both x directions
// reach the one other shard.
func TestNodeRecyclesOnlyDeadPackets(t *testing.T) {
	for _, tc := range []struct {
		name string
		side int
		grid Grid
	}{
		{"3x3", 9, Grid{P: 3, Q: 3}},
		{"2x1", 8, Grid{P: 2, Q: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed, saveAt, rollbackAt = 3, 3, 7
			m, ref := fullLoadRef(t, tc.side, routing.NewRandomGreedy(), seed)
			hashes := []uint64{ref.StateHash()}
			for ref.Live() > 0 {
				if err := ref.Step(); err != nil {
					t.Fatal(err)
				}
				hashes = append(hashes, ref.StateHash())
			}
			if len(hashes) <= rollbackAt {
				t.Fatalf("reference run ends at step %d, before the rollback at %d", len(hashes)-1, rollbackAt)
			}
			_, start := fullLoadRef(t, tc.side, routing.NewRandomGreedy(), seed)
			all := make([]int, tc.grid.Count())
			for i := range all {
				all[i] = i
			}
			n, err := NewNode(m, routing.NewRandomGreedy(), tc.grid, all, seed, sim.ValidateOff)
			if err != nil {
				t.Fatal(err)
			}
			loadFrom(t, n, start)

			var saved []ShardPart
			rolledBack := false
			for step := 0; n.Live() > 0; step++ {
				if step > 2*len(hashes) {
					t.Fatalf("node run did not finish: %d live at step %d", n.Live(), step)
				}
				if step == saveAt && saved == nil {
					for _, idx := range all {
						part, err := n.Part(idx, step)
						if err != nil {
							t.Fatal(err)
						}
						saved = append(saved, part)
					}
				}
				out, err := n.Route(step)
				if err != nil {
					t.Fatal(err)
				}
				if step == rollbackAt && !rolledBack {
					rolledBack = true
					for _, part := range saved {
						if err := n.LoadShard(part.Index, part.Packets); err != nil {
							t.Fatal(err)
						}
					}
					n.Release() // after a LOAD there is nothing to release
					checkReleased(t, n, saveAt)
					if got := nodeHash(n); got != hashes[saveAt] {
						t.Fatalf("after rollback to step %d: hash %#x, single engine %#x", saveAt, got, hashes[saveAt])
					}
					step = saveAt - 1
					continue
				}
				if _, arrived, err := n.ApplyArrived(step, overWire(n, out)); err != nil {
					t.Fatal(err)
				} else {
					for _, p := range arrived {
						if !p.Arrived() {
							t.Fatalf("step %d: packet %d reported arrived but is at node %d", step, p.ID, p.Node)
						}
					}
				}
				n.Release()
				checkReleased(t, n, step+1)
				if got, want := nodeHash(n), hashes[step+1]; got != want {
					t.Fatalf("step %d: hash %#x, single engine %#x", step+1, got, want)
				}
			}
			if !rolledBack {
				t.Fatal("the run never rolled back")
			}
			if len(n.free) == 0 {
				t.Fatal("nothing was ever released")
			}
		})
	}
}

// checkReleased asserts that the released packets are distinct and that
// none of them is queued, staged internally or staged for egress.
func checkReleased(t *testing.T, n *Node, step int) {
	t.Helper()
	dead := make(map[*sim.Packet]bool, len(n.free))
	for _, p := range n.free {
		if dead[p] {
			t.Fatalf("step %d: packet %p released twice", step, p)
		}
		dead[p] = true
	}
	for _, idx := range n.owned {
		s := n.shards[idx]
		for _, l := range s.q.Active() {
			for _, p := range s.q.At(int(l)) {
				if dead[p] {
					t.Fatalf("step %d shard %d: released packet %d is queued at node %d", step, idx, p.ID, p.Node)
				}
			}
		}
		lists := append([][]sim.Move{s.internal}, s.egress...)
		for _, list := range lists {
			for _, mv := range list {
				if dead[mv.Packet] {
					t.Fatalf("step %d shard %d: released packet %d is staged (%d->%d)", step, idx, mv.Packet.ID, mv.From, mv.To)
				}
			}
		}
	}
}

// BenchmarkNodeStep compares sim against one Node hosting both shards of a
// 2x1 grid, buckets handed straight back, on the 64x64 full-load torus
// under the fixed-priority policy: the per-hop cost of the shard kernel
// that every dshard worker runs, as "x/sim". A step-by-step pass first
// checks the state hashes, and every timed run's Result is checked
// against sim's.
func BenchmarkNodeStep(b *testing.B) {
	const side, seed = 64, 1
	m, e := fullLoadRef(b, side, routing.NewFixedPriority(), seed)
	n, err := NewNode(m, routing.NewFixedPriority(), Grid{P: 2, Q: 1}, []int{0, 1}, seed, sim.ValidateOff)
	if err != nil {
		b.Fatal(err)
	}
	// runNode runs the node, loaded from e, to completion and summarizes it
	// as sim would; check compares state hashes with e's at every step,
	// stepping e alongside.
	runNode := func(check bool) *sim.Result {
		at := e.Progress()
		res := &sim.Result{Total: at.Total, Delivered: at.Delivered}
		for t := 0; n.Live() > 0; t++ {
			out, err := n.Route(t)
			if err != nil {
				b.Fatal(err)
			}
			rep, _, err := n.ApplyArrived(t, out)
			if err != nil {
				b.Fatal(err)
			}
			res.TotalHops += rep.Hops
			res.TotalDeflections += rep.Deflections
			res.Delivered += rep.Arrivals
			res.Steps = max(res.Steps, rep.LastArrival)
			res.MaxNodeLoad = max(res.MaxNodeLoad, rep.MaxNodeLoad)
			res.Reroutes += rep.Reroutes
			if check {
				if err := e.Step(); err != nil {
					b.Fatal(err)
				}
				if got, want := nodeHash(n), e.StateHash(); got != want {
					b.Fatalf("step %d: node hash %#x, sim %#x", t+1, got, want)
				}
			}
		}
		return res
	}
	loadFrom(b, n, e)
	runNode(true)

	var simTime, nodeTime time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, e = fullLoadRef(b, side, routing.NewFixedPriority(), seed)
		runtime.GC() // neither side pays for the other's garbage
		t0 := time.Now()
		want, err := e.Run()
		if err != nil {
			b.Fatal(err)
		}
		simTime += time.Since(t0)
		_, e = fullLoadRef(b, side, routing.NewFixedPriority(), seed)
		loadFrom(b, n, e)
		runtime.GC()
		t0 = time.Now()
		got := runNode(false)
		nodeTime += time.Since(t0)
		if *got != *want {
			b.Fatalf("node result %+v, sim %+v", *got, *want)
		}
	}
	b.ReportMetric(float64(nodeTime)/float64(simTime), "x/sim")
}

// checkNodeLocated requires every packet queued in n to carry the
// displacement its node and destination give: the kernel's mask, DispGood
// on it, must equal GoodMask from the coordinate rows, and the neighbour of
// its node in every direction (a stride on a mesh) the per-node definition.
func checkNodeLocated(t *testing.T, where string, n *Node) {
	t.Helper()
	for _, s := range n.shards {
		for _, l := range s.q.Active() {
			for _, p := range s.q.At(int(l)) {
				d := p.Disp()
				if got, want := s.tab.DispGood(p.Node, &d), s.tab.GoodMask(p.Node, p.Dst); got != want {
					t.Fatalf("%s: packet %d at %d for %d: kernel mask %b, GoodMask %b", where, p.ID, p.Node, p.Dst, got, want)
				}
				for dir := mesh.Dir(0); int(dir) < n.m.DirCount(); dir++ {
					got, ok := s.tab.Neighbor(p.Node, dir)
					if want, wok := n.m.Neighbor(p.Node, dir); got != want || ok != wok {
						t.Fatalf("%s: node %d dir %v: Neighbor %d %v, want %d %v", where, p.Node, dir, got, ok, want, wok)
					}
				}
			}
		}
	}
}

// TestNodeCarriesDisplacement steps a Node hosting every shard of a 2x2 grid
// on a mesh and on a torus the way a dshard worker does — loaded through
// LoadShard (LoadBody), halo moves as freshly filled packets — reloads it
// mid-run from its own parts, and checks every queued packet after every
// load and step (checkNodeLocated) and the state hash against the single
// engine's.
func TestNodeCarriesDisplacement(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		m := mesh.MustNew(2, 10)
		if wrap {
			m = mesh.MustNewTorus(2, 10)
		}
		pkts, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		policy := routing.NewRandomGreedy
		ref, err := sim.New(m, policy(), clonePackets(pkts), sim.Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		start, err := sim.New(m, policy(), pkts, sim.Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		g := Grid{P: 2, Q: 2}
		n, err := NewNode(m, policy(), g, []int{0, 1, 2, 3}, 5, sim.ValidateOff)
		if err != nil {
			t.Fatal(err)
		}
		loadFrom(t, n, start)
		checkNodeLocated(t, m.String()+" loaded", n)
		for step := 0; n.Live() > 0; step++ {
			if step == 4 {
				for idx := range 4 {
					part, err := n.Part(idx, step)
					if err != nil {
						t.Fatal(err)
					}
					if err := n.LoadShard(idx, part.Packets); err != nil {
						t.Fatal(err)
					}
				}
				checkNodeLocated(t, m.String()+" reloaded", n)
			}
			out, err := n.Route(step)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := n.ApplyArrived(step, overWire(n, out)); err != nil {
				t.Fatal(err)
			}
			n.Release()
			if err := ref.Step(); err != nil {
				t.Fatal(err)
			}
			checkNodeLocated(t, m.String(), n)
			if nodeHash(n) != ref.StateHash() {
				t.Fatalf("%v: step %d: node hash differs from the single engine's", m, step)
			}
		}
	}
}

// clonePackets copies packets for a second engine over the same problem.
func clonePackets(pkts []*sim.Packet) []*sim.Packet {
	out := make([]*sim.Packet, len(pkts))
	for i, p := range pkts {
		c := *p
		out[i] = &c
	}
	return out
}
