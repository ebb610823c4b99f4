package shard

import (
	"math/rand"
	"testing"

	"hotpotato/internal/mesh"
	"hotpotato/internal/routing"
	"hotpotato/internal/sim"
	"hotpotato/internal/workload"
)

// checkShardQueues asserts what route, the state hash and the checkpoint
// capture assume about one shard's queues: the active list is strictly
// ascending and is exactly the set of non-empty queues, and every queued
// packet sits on the owned node its queue belongs to. It returns the number
// of queued packets.
func checkShardQueues(t *testing.T, s *shardState, step int) int {
	t.Helper()
	active := s.q.Active()
	queued, next := 0, 0
	for l := 0; l < s.sub.Len(); l++ {
		listed := next < len(active) && int(active[next]) == l
		if listed {
			next++
		}
		if occupied := s.q.Len(l) > 0; occupied != listed {
			t.Fatalf("step %d shard %d: local node %d holds %d packets but listed active=%v", step, s.idx, l, s.q.Len(l), listed)
		}
		for _, p := range s.q.At(l) {
			if !s.sub.Owns(p.Node) || s.sub.LocalID(p.Node) != l || p.Arrived() {
				t.Fatalf("step %d shard %d: local queue %d holds %v", step, s.idx, l, p)
			}
		}
		queued += s.q.Len(l)
	}
	if next != len(active) {
		t.Fatalf("step %d shard %d: active list %v is not strictly ascending or lists nodes past %d", step, s.idx, active, s.sub.Len())
	}
	return queued
}

// TestShardQueuesInvariants steps a 2×2 run whose 81-node shards cross a
// bitset word, checks every shard's queues between steps, and keeps the
// engine's state hash — which binary-searches each shard's active list —
// equal to the single engine's at every step.
func TestShardQueuesInvariants(t *testing.T) {
	m := mesh.MustNew(2, 18)
	pkts, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	clone := func() []*sim.Packet {
		out := make([]*sim.Packet, len(pkts))
		for i, p := range pkts {
			ps := sim.CapturePacket(p)
			out[i] = ps.Packet()
		}
		return out
	}
	ref, err := sim.New(m, routing.NewRandomGreedy(), clone(), sim.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(m, routing.NewRandomGreedy(), clone(), Options{Grid: Grid{P: 2, Q: 2}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for {
		queued := 0
		for i, w := range e.shards {
			queued += checkShardQueues(t, w.node.shards[i], e.time)
		}
		if queued != e.live {
			t.Fatalf("step %d: %d packets queued, %d live", e.time, queued, e.live)
		}
		if hr, hs := ref.StateHash(), e.StateHash(); hr != hs {
			t.Fatalf("step %d: state hash %#x, single engine %#x", e.time, hs, hr)
		}
		if e.live == 0 {
			break
		}
		if e.time > 2000 {
			t.Fatalf("run did not finish: %d live at step %d", e.live, e.time)
		}
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
}
