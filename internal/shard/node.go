package shard

import (
	"fmt"
	"slices"

	"hotpotato/internal/codec"
	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// This file is the package's distributed surface: the pieces a cross-process
// runner (internal/dshard) shares with the in-process Engine so a
// distributed run is bit-identical to a single-engine one. A Partition maps
// global nodes to shard indices for a coordinator that must split packet
// populations itself, and a Node hosts a subset of the grid's shards inside
// one worker process — same shardState, same route, same merge — with
// every cross-shard move surfaced as an explicit Bucket instead of an
// in-memory mailbox, so the halo exchange can travel over a wire.

// Partition is the exported node→shard ownership map of a PxQ decomposition
// over a mesh: the same banded split the Engine uses, for coordinators that
// partition packet populations or checkpoint parts across workers.
type Partition struct {
	pt *partition
}

// NewPartition computes the partition of m under grid g. The mesh must be
// 2-dimensional and the grid must fit its side, exactly as for Engine.
func NewPartition(m *mesh.Mesh, g Grid) (*Partition, error) {
	pt, err := newPartition(m, g)
	if err != nil {
		return nil, err
	}
	return &Partition{pt: pt}, nil
}

// Grid returns the decomposition.
func (p *Partition) Grid() Grid { return p.pt.grid }

// Count returns the number of shards, P*Q.
func (p *Partition) Count() int { return p.pt.grid.Count() }

// Owner returns the index of the shard owning the global node.
func (p *Partition) Owner(id mesh.NodeID) int { return p.pt.owner(id) }

// Bounds returns the rectangle of shard idx.
func (p *Partition) Bounds(idx int) (x0, y0, w, h int) {
	return p.pt.bounds(idx%p.pt.grid.P, idx/p.pt.grid.P)
}

// Side returns the mesh side the partition was computed for.
func (p *Partition) Side() int { return p.pt.side }

// Bucket is one halo transfer: the moves leaving shard From for shard To in
// one step, in (source node, queue position) order — the same receiver-keyed
// egress bucket the in-process engine exchanges through shared memory,
// surfaced so it can be serialized. Moves reference live packets; a bucket
// is valid until its producing shard routes again or its Node releases.
type Bucket struct {
	From, To int
	Moves    []sim.Move
}

// ApplyReport aggregates what one Node.Apply did: the per-step counter
// deltas the coordinator folds into its global totals, and the packets that
// reached their destinations this step (captured post-arrival, so the
// coordinator owns the finalized population).
type ApplyReport struct {
	Hops        int64
	Deflections int64
	Arrivals    int
	LastArrival int
	Reroutes    int64
	MaxNodeLoad int
	Finalized   []sim.PacketState
}

// Node hosts a subset of a PxQ decomposition's shards inside one worker
// process. It steps them sequentially — cross-process parallelism is the
// point, not more goroutines — with the exact shardState machinery the
// Engine runs, so determinism is inherited rather than re-proven. All
// cross-shard moves, including those between two shards hosted by the same
// Node, surface as Buckets and are expected back as ingress: the transport
// above decides how they travel.
//
// A Node is single-goroutine state. The step protocol is Route(t) → the
// caller exchanges buckets → Apply(t); LoadBody or LoadShard
// (re)initializes a shard between steps.
type Node struct {
	m      *mesh.Mesh
	pt     *partition
	owned  []int
	shards map[int]*shardState

	finalized []*sim.Packet
	// ids is LoadBody's scratch for the duplicate-ID check.
	ids []int

	// free holds the released packets; applied marks the window from a
	// successful ApplyArrived to the next Route or load.
	free    []*sim.Packet
	applied bool
}

// NewNode builds a node hosting the given shard indices of grid g over mesh
// m. The rules are Engine's: 2-dimensional mesh, grid fitting the side, and
// a ClonablePolicy when the node hosts more than one shard (each shard
// routes with its own clone, exactly as the Engine's goroutines do).
func NewNode(m *mesh.Mesh, policy sim.Policy, g Grid, owned []int, seed int64, validation sim.ValidationLevel) (*Node, error) {
	if m == nil {
		return nil, fmt.Errorf("%w: nil mesh", sim.ErrBadInjection)
	}
	if policy == nil {
		return nil, fmt.Errorf("%w: nil policy", sim.ErrBadInjection)
	}
	g = g.norm()
	pt, err := newPartition(m, g)
	if err != nil {
		return nil, err
	}
	if len(owned) == 0 {
		return nil, fmt.Errorf("%w: node owns no shards", sim.ErrBadInjection)
	}
	shardPolicy := func() sim.Policy { return policy }
	if len(owned) > 1 {
		cp, ok := policy.(sim.ClonablePolicy)
		if !ok {
			return nil, fmt.Errorf("%w: policy %s does not implement ClonablePolicy (required to host %d shards)",
				sim.ErrBadInjection, policy.Name(), len(owned))
		}
		shardPolicy = func() sim.Policy { return cp.Clone() }
	}
	n := &Node{
		m:      m,
		pt:     pt,
		owned:  slices.Clone(owned),
		shards: make(map[int]*shardState, len(owned)),
	}
	slices.Sort(n.owned)
	for _, idx := range n.owned {
		if idx < 0 || idx >= g.Count() {
			return nil, fmt.Errorf("%w: shard index %d out of range for grid %s", sim.ErrBadInjection, idx, g)
		}
		if _, dup := n.shards[idx]; dup {
			return nil, fmt.Errorf("%w: shard index %d owned twice", sim.ErrBadInjection, idx)
		}
		s, err := newShardState(m, pt, idx%g.P, idx/g.P, shardPolicy(), seed, validation)
		if err != nil {
			return nil, err
		}
		s.finalized = &n.finalized
		n.shards[idx] = s
	}
	return n, nil
}

// Owned returns the hosted shard indices in ascending order. Callers must
// not mutate the slice.
func (n *Node) Owned() []int { return n.owned }

// Grid returns the decomposition the node is part of.
func (n *Node) Grid() Grid { return n.pt.grid }

// shard returns the hosted shard idx or an error naming the protocol bug.
func (n *Node) shard(idx int) (*shardState, error) {
	s := n.shards[idx]
	if s == nil {
		return nil, fmt.Errorf("shard: node does not host shard %d", idx)
	}
	return s, nil
}

// LoadShard replaces shard idx's state with the given live packets, in
// queue order over ascending nodes — the exact order of a checkpoint
// ShardPart re-partitioned to this shard. It is LoadBody on the packets'
// encoding, so an in-memory load passes the very checks a LOAD does.
func (n *Node) LoadShard(idx int, pkts []sim.PacketState) error {
	var e codec.Enc
	sim.EncodePackets(&e, pkts)
	d := codec.Dec{B: e.B}
	return n.LoadBody(idx, &d)
}

// LoadBody replaces shard idx's state with the counted packet list d reads
// next (sim.EncodePackets' layout: a dshard LOAD body), decoding each packet
// straight into one slab — the one loader behind initial distribution,
// post-failure rollback and resume. The packets come in queue order over
// ascending nodes. Counter partials are cleared; the coordinator owns the
// global counters. Every packet must be live and in the mesh, sit on a node
// the shard owns, and carry an ID unique within the body, and no node may
// hold more than its out-degree. A body d cannot decode is refused, and
// d.Err() tells the caller so.
func (n *Node) LoadBody(idx int, d *codec.Dec) error {
	s, err := n.shard(idx)
	if err != nil {
		return err
	}
	count := d.Count("packet")
	s.reset()
	n.applied = false
	s.internal = slices.Grow(s.internal[:0], count) // a route stages one move per packet
	slab := make([]sim.Packet, count)
	n.ids = n.ids[:0]
	var ps sim.PacketState
	for i := range slab {
		if ps.Decode(d); d.Err() != nil {
			return fmt.Errorf("%w: shard %d body: %v", ErrBadCheckpoint, idx, d.Err())
		}
		if err := checkPacketIDs(n.m, &ps); err != nil {
			return err
		}
		if ps.ArrivedAt >= 0 {
			return fmt.Errorf("%w: packet %d already arrived", ErrBadCheckpoint, ps.ID)
		}
		if n.pt.owner(ps.Node) != idx {
			return fmt.Errorf("%w: packet %d at node %d belongs to shard %d, loaded into %d",
				ErrBadCheckpoint, ps.ID, ps.Node, n.pt.owner(ps.Node), idx)
		}
		ps.Fill(&slab[i])
		n.ids = append(n.ids, ps.ID)
	}
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: shard %d body: %v", ErrBadCheckpoint, idx, err)
	}
	if id, dup := sim.DuplicateID(n.ids); dup {
		return fmt.Errorf("%w: packet id %d occurs more than once", ErrBadCheckpoint, id)
	}
	for i := range slab {
		if p := &slab[i]; !s.load(p) {
			return fmt.Errorf("%w: node %d holds more packets than its out-degree %d",
				ErrBadCheckpoint, p.Node, n.m.Degree(p.Node))
		}
	}
	return nil
}

// checkPacketIDs refuses a packet state whose source, destination or node
// is not a node of m, as sim.Restore does: routing indexes the mesh's
// tables with the node and the destination. Like sim.Restore it also
// refuses a good-direction count no node can have, which a sim.Packet could
// not hold.
func checkPacketIDs(m *mesh.Mesh, ps *sim.PacketState) error {
	for _, id := range [...]mesh.NodeID{ps.Src, ps.Dst, ps.Node} {
		if err := m.CheckID(id); err != nil {
			return fmt.Errorf("%w: packet %d (%d->%d at %d): %v", ErrBadCheckpoint, ps.ID, ps.Src, ps.Dst, ps.Node, err)
		}
	}
	if ps.GoodPrev < 0 || ps.GoodPrev > 2*mesh.MaxDim {
		return fmt.Errorf("%w: packet %d good-direction count %d outside [0, %d]", ErrBadCheckpoint, ps.ID, ps.GoodPrev, 2*mesh.MaxDim)
	}
	return nil
}

// Route routes every hosted shard for step t and returns the cross-shard
// egress buckets, ordered by (sending shard, bucket index) — a fixed order,
// so the serialized exchange is deterministic. The returned buckets alias
// shard staging memory: they are valid until the next Route or Release.
func (n *Node) Route(t int) ([]Bucket, error) {
	n.applied = false
	var out []Bucket
	for _, idx := range n.owned {
		s := n.shards[idx]
		if err := s.route(t); err != nil {
			return nil, err
		}
		for b, recv := range s.recvShard {
			if len(s.egress[b]) > 0 {
				out = append(out, Bucket{From: idx, To: recv, Moves: s.egress[b]})
			}
		}
	}
	return out, nil
}

// Apply applies step t on every hosted shard: each shard's internal moves
// merged with the ingress buckets addressed to it. Bucket order does not
// matter (the merge orders by source node); each (From, To) pair may
// appear at most once, exactly as senders produce them. An ingress packet
// must hold its pre-move state (a halo move's decoded packet does); its
// displacement is recomputed here. Route(t) must have run first.
func (n *Node) Apply(t int, ingress []Bucket) (ApplyReport, error) {
	rep, arrived, err := n.ApplyArrived(t, ingress)
	for _, p := range arrived {
		rep.Finalized = append(rep.Finalized, sim.CapturePacket(p))
	}
	return rep, err
}

// ApplyArrived is Apply for a caller that serializes the arrived packets
// itself: rep.Finalized stays nil and the packets come back as they are,
// post-arrival, in the order Apply captures them — valid until the next
// Apply or Release.
func (n *Node) ApplyArrived(t int, ingress []Bucket) (ApplyReport, []*sim.Packet, error) {
	var rep ApplyReport
	n.applied = false
	n.finalized = n.finalized[:0]
	for _, idx := range n.owned {
		s := n.shards[idx]
		var lists [maxMergeLists][]sim.Move
		cnt := 0
		if len(s.internal) > 0 {
			lists[cnt] = s.internal
			cnt++
		}
		for i := range ingress {
			in := &ingress[i]
			if in.To != idx || len(in.Moves) == 0 {
				continue
			}
			if cnt >= len(lists) {
				return rep, nil, fmt.Errorf("shard: step %d shard %d: more than %d ingress lists (duplicate sender bucket?)",
					t, idx, len(lists)-1)
			}
			for j := range in.Moves {
				in.Moves[j].Packet.Locate(s.tab) // a packet off the wire carries no displacement
			}
			lists[cnt] = in.Moves
			cnt++
		}
		s.q.Clear()
		if err := s.merge(t, lists[:cnt]); err != nil {
			return rep, nil, err
		}
		s.drain(&rep, t+1)
	}
	n.applied = true
	return rep, n.finalized, nil
}

// Release hands Recycled the packets the last ApplyArrived left dead: the
// egress packets of the route it consumed (their queues are emptied, their
// state left as bytes) and the arrived packets it returned, which the
// caller must have encoded. It empties the consumed staging lists, so no
// released packet stays reachable, and is a no-op unless ApplyArrived
// succeeded since the last Route or load. Only a caller whose halo
// moves travel as bytes may release: one that hands Route's buckets back in
// memory enqueues the senders' packets at the receivers.
func (n *Node) Release() {
	if !n.applied {
		return
	}
	n.applied = false
	for _, idx := range n.owned {
		s := n.shards[idx]
		s.internal = s.internal[:0]
		for b := range s.egress {
			for i := range s.egress[b] {
				n.free = append(n.free, s.egress[b][i].Packet)
			}
			s.egress[b] = s.egress[b][:0]
		}
	}
	n.free = append(n.free, n.finalized...)
	n.finalized = n.finalized[:0]
}

// Recycled returns a packet for the caller to fill (sim.PacketState.Fill):
// a released one, or a new one when none is left.
func (n *Node) Recycled() *sim.Packet {
	if k := len(n.free) - 1; k >= 0 {
		p := n.free[k]
		n.free = n.free[:k]
		return p
	}
	return new(sim.Packet)
}

// HashWords appends shard idx's configuration-hash word pairs — one
// (idWord, posWord) pair per live packet, in queue order over the shard's
// sorted active nodes — to dst and returns it. A coordinator re-folds the
// pairs of all shards in global row order into the exact single-engine
// state hash (the posWord's high bits carry the node id it needs to do so).
func (n *Node) HashWords(idx int, dst []uint64) ([]uint64, error) {
	s, err := n.shard(idx)
	if err != nil {
		return nil, err
	}
	for _, l := range s.q.Active() {
		for _, p := range s.q.At(int(l)) {
			id, pos := sim.ConfigHashPacketWords(p)
			dst = append(dst, id, pos)
		}
	}
	return dst, nil
}

// Part captures shard idx's live packets as a checkpoint part for step t,
// in the same queue order Engine.Checkpoint writes.
func (n *Node) Part(idx, t int) (ShardPart, error) {
	s, err := n.shard(idx)
	if err != nil {
		return ShardPart{}, err
	}
	return s.part(t), nil
}

// Live returns the number of live packets across the hosted shards.
func (n *Node) Live() int {
	total := 0
	for _, idx := range n.owned {
		s := n.shards[idx]
		for _, l := range s.q.Active() {
			total += s.q.Len(int(l))
		}
	}
	return total
}
