package shard

import (
	"fmt"
	"math"
	"slices"

	"hotpotato/internal/codec"
	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// This file is the package's one sharded step. A Node hosts a subset of a
// grid's shards and steps them: route, then apply the moves addressed to
// them, with every cross-shard move surfaced as an explicit Bucket. The
// in-process Engine runs one Node per shard and hands the buckets over in
// memory; a dshard worker hosts several and sends them over a wire.

// Bucket is one halo transfer: the moves leaving shard From for shard To in
// one step, in (source node, queue position) order — a shard's
// receiver-keyed egress bucket. Moves reference live packets; a bucket is
// valid until its producing Node routes again or releases.
type Bucket struct {
	From, To int
	Moves    []sim.Move
}

// ApplyReport aggregates what one Node.Apply did: the per-step counter
// deltas a run's Ledger folds into its global totals, and the packets that
// reached their destinations this step (captured post-arrival; ApplyArrived
// leaves Finalized nil and returns the packets instead).
type ApplyReport struct {
	Hops        int64
	Deflections int64
	Arrivals    int
	LastArrival int
	Reroutes    int64
	MaxNodeLoad int
	Finalized   []sim.PacketState
}

// Node hosts a subset of a PxQ decomposition's shards and steps them
// sequentially. It is the one sharded step: the in-process Engine runs one
// Node per shard, each on its own goroutine, and a dshard worker process
// hosts a range of shards in one. All cross-shard moves, including those
// between two shards hosted by the same Node, surface as Buckets and are
// expected back as ingress: the caller decides how they travel.
//
// A Node is single-goroutine state. The step protocol is Route(t) → the
// caller exchanges buckets → Apply(t); Admit places a packet between steps,
// and LoadBody or LoadShard (re)initializes a shard.
type Node struct {
	m      *mesh.Mesh
	pt     *Partition
	owned  []int
	shards map[int]*shardState

	// out is Route's bucket list and finalized ApplyArrived's arrived
	// packets, both reused step after step.
	out       []Bucket
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
	pt, err := NewPartition(m, g)
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
// straight into one slab — the one loader behind a dshard worker's initial
// distribution, every rollback and every resume. The packets come in queue
// order over ascending nodes. Counter partials are cleared; the run's Ledger
// owns the global counters. Every packet must be live and in the mesh, sit
// on a node the shard owns, and carry an ID unique within the body, and no
// node may hold more than its out-degree. A body d cannot decode is refused, and
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

// Admit places an admitted packet at its source, which a hosted shard owns,
// unless the node already holds its out-degree. It is a sim.PlaceFunc: it
// reports the node's load afterwards, or the load that left no room.
func (n *Node) Admit(p *sim.Packet) (held int, ok bool) {
	s := n.shards[n.pt.owner(p.Src)]
	held = s.q.Len(s.sub.LocalID(p.Src))
	if !s.load(p) {
		return held, false
	}
	return held + 1, true
}

// Room returns how many packets can still be placed at node, which a hosted
// shard owns, without exceeding its out-degree: its injection capacity.
func (n *Node) Room(node mesh.NodeID) int {
	s := n.shards[n.pt.owner(node)]
	l := s.sub.LocalID(node)
	return max(s.sub.DegreeLocal(l)-s.q.Len(l), 0)
}

// Route routes every hosted shard for step t and returns the cross-shard
// egress buckets, ordered by (sending shard, bucket index) — a fixed order,
// so the serialized exchange is deterministic. The returned list and its
// buckets are the node's own memory: they are valid until the next Route or
// Release.
func (n *Node) Route(t int) ([]Bucket, error) {
	n.applied = false
	n.out = n.out[:0]
	for _, idx := range n.owned {
		s := n.shards[idx]
		if err := s.route(t); err != nil {
			return nil, err
		}
		for b, recv := range s.recvShard {
			if len(s.egress[b]) > 0 {
				n.out = append(n.out, Bucket{From: idx, To: recv, Moves: s.egress[b]})
			}
		}
	}
	return n.out, nil
}

// Apply applies step t on every hosted shard: each shard's internal moves
// merged with the ingress buckets addressed to it, which may be other
// Nodes' Route output handed over in memory or packets decoded off a wire.
// Bucket order does not matter (the merge orders by source node); each
// (From, To) pair may appear at most once, exactly as senders produce them.
// An ingress packet must hold its pre-move state; its displacement is
// recomputed here. Route(t) must have run first.
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
	// No more packets arrive than moves are applied: room for them all keeps
	// the list from growing step by step as arrivals pick up.
	moves := 0
	for _, idx := range n.owned {
		moves += len(n.shards[idx].internal)
	}
	for i := range ingress {
		moves += len(ingress[i].Moves)
	}
	n.finalized = slices.Grow(n.finalized[:0], moves)
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
		var err error
		if n.finalized, err = s.merge(t, lists[:cnt], n.finalized); err != nil {
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
// sorted active nodes — to dst and returns it. Partition.FoldHash folds the
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
// in queue order over its ascending active nodes.
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

// shardState is one shard: the owned rectangle (a Subgrid), a NodeRouter
// over the mesh's shared table, the per-node queues of the owned rectangle,
// and the halo staging lists. A Node owns it.
type shardState struct {
	idx    int
	sub    *mesh.Subgrid
	tab    *mesh.Tables // the mesh's shared table: the router's, and every hop's geometry
	router *sim.NodeRouter

	q sim.Queues // by local id, which orders like the global id within the shard

	// Halo staging. internal stages this shard's own moves; egress[b]
	// stages moves leaving toward receiver shard recvShard[b]. recvOf maps
	// a travel direction to its egress bucket (-1: off-mesh or wraps back
	// into this shard). Buckets are keyed by receiver — two directions that
	// reach the same shard (a 2-wide torus ring) share one bucket, so a
	// node emitting through both still delivers its moves in queue order.
	internal  []sim.Move
	edge      []bool // edge[l]: an arc out of local node l leaves the shard
	egress    [][]sim.Move
	recvShard []int
	recvOf    []int

	// tally holds the counter partials of the apply in progress; drain
	// folds them into an ApplyReport.
	tally sim.MoveTally
}

// newShardState builds one shard: the owned rectangle, its NodeRouter over
// the table every shard of the mesh shares, its queues, and the egress
// buckets.
func newShardState(m *mesh.Mesh, pt *Partition, col, row int, policy sim.Policy, seed int64, validation sim.ValidationLevel) (*shardState, error) {
	x0, y0, w, h := pt.bounds(col, row)
	sub, err := m.Subgrid(x0, y0, w, h)
	if err != nil {
		return nil, err
	}
	s := &shardState{
		idx:    row*pt.grid.P + col,
		sub:    sub,
		tab:    m.Tables(),
		router: sim.NewNodeRouter(m.Tables(), policy, seed, validation),
		q:      sim.NewQueues(sub.Len(), m.DirCount(), sub.DegreeLocal),
		recvOf: make([]int, m.DirCount()),
	}
	wireEgress(s, pt.grid, m.Wrap(), col, row)
	s.edge = make([]bool, sub.Len())
	for l := range s.edge {
		for d := range s.recvOf {
			to, ok := s.tab.Neighbor(sub.GlobalID(l), mesh.Dir(d))
			s.edge[l] = s.edge[l] || ok && !sub.Owns(to)
		}
	}
	return s, nil
}

// wireEgress computes, for shard (col, row), the receiver shard of each
// travel direction and allocates one egress bucket per distinct receiver.
func wireEgress(s *shardState, g Grid, wrap bool, col, row int) {
	for d := range s.recvOf {
		s.recvOf[d] = -1
		ncol, nrow := col, row
		switch mesh.Dir(d) {
		case mesh.DirPlus(0):
			ncol++
		case mesh.DirMinus(0):
			ncol--
		case mesh.DirPlus(1):
			nrow++
		case mesh.DirMinus(1):
			nrow--
		}
		if ncol < 0 || ncol >= g.P || nrow < 0 || nrow >= g.Q {
			if !wrap {
				continue // the arc leads off the mesh; nothing ever leaves this way
			}
			ncol = (ncol + g.P) % g.P
			nrow = (nrow + g.Q) % g.Q
		}
		recv := nrow*g.P + ncol
		if recv == s.idx {
			continue // wraps back into this shard: such moves are internal
		}
		b := -1
		for i, r := range s.recvShard {
			if r == recv {
				b = i
				break
			}
		}
		if b < 0 {
			b = len(s.recvShard)
			s.recvShard = append(s.recvShard, recv)
			s.egress = append(s.egress, nil)
		}
		s.recvOf[d] = b
	}
}

// route routes every active node of the shard in ascending global-node
// order. The router writes a node's moves straight into the internal list;
// at an edge node the boundary-crossing ones then move to the egress bucket
// of their receiving shard and the rest close up in place. Every staging
// list thus holds its moves in (source node, queue position) order — the
// single engine's application order restricted to that list — which is
// what the receivers' merge relies on.
func (s *shardState) route(t int) error {
	s.internal = s.internal[:0]
	for b := range s.egress {
		s.egress[b] = s.egress[b][:0]
	}
	for _, l := range s.q.Active() {
		pkts := s.q.At(int(l))
		n := len(s.internal)
		s.internal = slices.Grow(s.internal, len(pkts))[:n+len(pkts)]
		if err := s.router.RouteNode(s.sub.GlobalID(int(l)), t, pkts, s.internal[n:]); err != nil {
			return err
		}
		if !s.edge[l] {
			continue // every move stays in the shard
		}
		for i := n; i < len(s.internal); i++ {
			mv := &s.internal[i]
			if s.sub.Owns(mv.To) {
				if n != i {
					s.internal[n] = *mv
				}
				n++
				continue
			}
			b := s.recvOf[mv.Dir]
			if b < 0 {
				return fmt.Errorf("shard: internal error: shard %d step %d move %d->%d via %v has no receiver",
					s.idx, t, mv.From, mv.To, mv.Dir)
			}
			s.egress[b] = append(s.egress[b], *mv)
		}
		s.internal = s.internal[:n]
	}
	return nil
}

// maxMergeLists bounds how many staging lists one shard's apply can merge:
// its internal list plus one per distinct sending neighbor shard. Buckets
// are receiver-keyed on the sender, so each of the at most four neighbor
// shards (fewer when torus wrap aliases them) contributes one list.
const maxMergeLists = 5

// reset empties the shard for (re)loading from a checkpoint part: queues and
// the per-step partials. The run's Ledger owns the global counters.
func (s *shardState) reset() {
	s.q.Clear()
	s.tally = sim.MoveTally{}
	s.router.DrainCounters()
}

// drain folds the shard's partials of the step that ended at time now into
// rep and clears them.
func (s *shardState) drain(rep *ApplyReport, now int) {
	rep.Hops += s.tally.Hops
	rep.Deflections += s.tally.Deflections
	if s.tally.Arrivals > 0 {
		rep.Arrivals += s.tally.Arrivals
		rep.LastArrival = now
	}
	s.tally = sim.MoveTally{}
	maxLoad, reroutes := s.router.DrainCounters()
	rep.MaxNodeLoad = max(rep.MaxNodeLoad, maxLoad)
	rep.Reroutes += reroutes
}

// merge applies the staging lists in ascending source-node order, a run at
// a time: the list with the smallest head applies every move whose source
// precedes the other lists' heads. Each list is sorted by source node
// (route's invariant) and the lists' source sets are disjoint (every node
// has one owner), so this is exactly the single engine's per-destination
// enqueue order; queue order is routing-relevant state, so this is where
// sharded equals unsharded. The packets that arrive are appended to arrived,
// which is returned. A node receives at most one packet per incoming arc,
// so a queue overflows only when an unvalidated policy sent two packets down
// one arc; that is an error.
func (s *shardState) merge(t int, lists [][]sim.Move, arrived []*sim.Packet) ([]*sim.Packet, error) {
	for n := len(lists); n > 0; {
		best, bound := 0, mesh.NodeID(math.MaxInt32) // bound: the smallest head but best's
		for i := 1; i < n; i++ {
			if head := lists[i][0].From; head < lists[best][0].From {
				best, bound = i, lists[best][0].From
			} else {
				bound = min(bound, head)
			}
		}
		run := lists[best]
		j := 0
		for j < len(run) && run[j].From < bound {
			j++
		}
		s.tally.Apply(s.tab, run[:j], t+1)
		for k := range run[:j] {
			mv := &run[k]
			if mv.ArrivedNow {
				arrived = append(arrived, mv.Packet)
			} else if !s.enqueue(mv.Packet) {
				return arrived, fmt.Errorf("%w: step %d: node %d receives more packets than it has arcs", sim.ErrLinkConflict, t, mv.To)
			}
		}
		if lists[best] = run[j:]; j == len(run) {
			n--
			lists[best] = lists[n]
		}
	}
	return arrived, nil
}

// enqueue queues p at its node, which the shard owns, and reports whether
// the node had room.
func (s *shardState) enqueue(p *sim.Packet) bool { return s.q.Push(s.sub.LocalID(p.Node), p) }

// load is enqueue for a packet that arrives other than by a move the shard
// applies — admitted, loaded or restored: it Locates the packet first.
func (s *shardState) load(p *sim.Packet) bool {
	p.Locate(s.tab)
	return s.enqueue(p)
}
