package traffic

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// pending is one generated-but-not-yet-injected packet.
type pending struct {
	dst         mesh.NodeID
	generatedAt int
	class       int
}

// backlog is the source-queue half of an injector, shared by Source and
// Bernoulli: generated packets that found no room wait in per-node FIFO
// queues and drain, in node order, into whatever room the hot-potato
// constraint leaves. Only nodes holding a packet have a queue, and busy
// lists them in ascending order, so a step costs O(arrivals + backlogged
// nodes) however large the mesh is. It also keeps the generated/injected
// accounting and every packet's generation step, for latency and
// saturation measurement.
type backlog struct {
	nodes    int         // mesh size; 0 until the first Inject sizes it
	busy     []nodeQueue // the non-empty queues, ascending by node
	spare    []nodeQueue // the buffer drain builds the next busy in
	arrivals []Gen       // this step's generated packets, in generation order

	generated  int
	injected   int
	curBacklog int
	maxBacklog int
	genTime    map[int]int // packet ID -> generation step
}

// nodeQueue is the FIFO of packets waiting at one node.
type nodeQueue struct {
	node mesh.NodeID
	q    []pending
}

// size records the mesh the backlog serves, on the first Inject.
func (b *backlog) size(m *mesh.Mesh) {
	if b.nodes == 0 {
		b.nodes = m.Size()
	}
	if b.genTime == nil {
		b.genTime = make(map[int]int)
	}
}

// drain queues this step's arrivals and injects, from every node that has
// packets waiting, as many as the node has room for at step t — nodes in
// ascending order, each node's packets oldest first. It is one merge of
// the carried-over queues with the arrivals sorted by source, so a packet
// that finds room on arrival never touches a queue. A non-nil trace
// records each injection.
func (b *backlog) drain(t int, host sim.InjectorHost, trace *TraceWriter) []*sim.Packet {
	arrivals, carried := b.arrivals, b.busy
	slices.SortStableFunc(arrivals, func(x, y Gen) int { return cmp.Compare(x.Src, y.Src) })
	b.generated += len(arrivals)
	b.curBacklog += len(arrivals)

	var out []*sim.Packet
	if n := len(arrivals) + len(carried); n > 0 {
		out = make([]*sim.Packet, 0, n)
	}
	inject := func(node mesh.NodeID, pd pending) {
		p := sim.NewPacket(host.NextPacketID(), node, pd.dst)
		p.Class = pd.class
		b.genTime[p.ID] = pd.generatedAt
		out = append(out, p)
		if trace != nil {
			trace.Record(t, node, pd.dst, pd.class)
		}
	}
	next := b.spare[:0]
	for len(carried) > 0 || len(arrivals) > 0 {
		var node mesh.NodeID
		var waiting []pending
		if len(arrivals) == 0 || (len(carried) > 0 && carried[0].node <= arrivals[0].Src) {
			node, waiting = carried[0].node, carried[0].q
			carried = carried[1:]
		} else {
			node = arrivals[0].Src
		}
		n := 0
		for n < len(arrivals) && arrivals[n].Src == node {
			n++
		}
		fresh := arrivals[:n]
		arrivals = arrivals[n:]

		room := host.InjectionCapacity(node)
		take := min(room, len(waiting))
		for _, pd := range waiting[:take] {
			inject(node, pd)
		}
		waiting = waiting[take:]
		for i, gp := range fresh {
			pd := pending{dst: gp.Dst, generatedAt: t, class: gp.Class}
			if i < room-take {
				inject(node, pd)
			} else {
				waiting = append(waiting, pd)
			}
		}
		if len(waiting) > 0 {
			next = append(next, nodeQueue{node: node, q: waiting})
		}
	}
	clear(b.busy) // drop the queue references before the buffer is reused
	b.busy, b.spare = next, b.busy[:0]

	b.injected += len(out)
	b.curBacklog -= len(out)
	if b.curBacklog > b.maxBacklog {
		b.maxBacklog = b.curBacklog
	}
	return out
}

// Generated returns the number of packets produced so far.
func (b *backlog) Generated() int { return b.generated }

// Injected returns the number of packets actually injected so far.
func (b *backlog) Injected() int { return b.injected }

// Backlog returns the current number of generated-but-not-injected packets.
func (b *backlog) Backlog() int { return b.curBacklog }

// MaxBacklog returns the largest backlog observed.
func (b *backlog) MaxBacklog() int { return b.maxBacklog }

// Latency returns the end-to-end latency (generation to arrival) of a
// delivered packet, or -1 if it has not arrived or is unknown.
func (b *backlog) Latency(p *sim.Packet) int {
	gen, ok := b.genTime[p.ID]
	if !ok || !p.Arrived() {
		return -1
	}
	return p.ArrivedAt - gen
}

// Serialized backlog state. Maps are flattened into slices sorted by key so
// the bytes are deterministic (checkpoint parity is bit-level).

type pendingState struct {
	Dst   mesh.NodeID `json:"dst"`
	Gen   int         `json:"gen"`
	Class int         `json:"class,omitempty"`
}

type queueState struct {
	Node mesh.NodeID    `json:"node"`
	Pend []pendingState `json:"pend"`
}

type idStep struct {
	ID   int `json:"id"`
	Step int `json:"step"`
}

// backlogState is the whole checkpoint payload of Bernoulli and the leading
// part of Source's, so both round-trip identically.
type backlogState struct {
	Nodes      int          `json:"nodes"` // 0 = not yet sized
	Backlog    []queueState `json:"backlog,omitempty"`
	Generated  int          `json:"generated"`
	Injected   int          `json:"injected"`
	CurBacklog int          `json:"cur_backlog"`
	MaxBacklog int          `json:"max_backlog"`
	GenTime    []idStep     `json:"gen_time,omitempty"`
}

func (b *backlog) snapshot() backlogState {
	st := backlogState{
		Nodes:      b.nodes,
		Generated:  b.generated,
		Injected:   b.injected,
		CurBacklog: b.curBacklog,
		MaxBacklog: b.maxBacklog,
		GenTime:    make([]idStep, 0, len(b.genTime)),
	}
	for _, nq := range b.busy {
		qs := queueState{Node: nq.node, Pend: make([]pendingState, len(nq.q))}
		for i, p := range nq.q {
			qs.Pend[i] = pendingState{Dst: p.dst, Gen: p.generatedAt, Class: p.class}
		}
		st.Backlog = append(st.Backlog, qs)
	}
	for id, step := range b.genTime {
		st.GenTime = append(st.GenTime, idStep{ID: id, Step: step})
	}
	sort.Slice(st.GenTime, func(i, j int) bool { return st.GenTime[i].ID < st.GenTime[j].ID })
	return st
}

func (b *backlog) restore(st backlogState) error {
	if st.Nodes < 0 || (st.Nodes == 0 && len(st.Backlog) > 0) {
		return fmt.Errorf("traffic: %d backlog entries for a node count of %d", len(st.Backlog), st.Nodes)
	}
	busy := make([]nodeQueue, 0, len(st.Backlog))
	count := 0
	for _, qs := range st.Backlog {
		if qs.Node < 0 || int(qs.Node) >= st.Nodes {
			return fmt.Errorf("traffic: backlog node %d outside [0, %d)", qs.Node, st.Nodes)
		}
		if len(busy) > 0 && qs.Node <= busy[len(busy)-1].node {
			return fmt.Errorf("traffic: backlog node %d out of order (after node %d)", qs.Node, busy[len(busy)-1].node)
		}
		if len(qs.Pend) == 0 {
			return fmt.Errorf("traffic: backlog node %d has an empty queue", qs.Node)
		}
		q := make([]pending, len(qs.Pend))
		for i, ps := range qs.Pend {
			q[i] = pending{dst: ps.Dst, generatedAt: ps.Gen, class: ps.Class}
		}
		busy = append(busy, nodeQueue{node: qs.Node, q: q})
		count += len(q)
	}
	if count != st.CurBacklog {
		return fmt.Errorf("traffic: backlog carries %d packets, state says %d", count, st.CurBacklog)
	}
	b.nodes = st.Nodes
	b.busy = busy
	b.generated = st.Generated
	b.injected = st.Injected
	b.curBacklog = st.CurBacklog
	b.maxBacklog = st.MaxBacklog
	b.genTime = make(map[int]int, len(st.GenTime))
	for _, e := range st.GenTime {
		b.genTime[e.ID] = e.Step
	}
	return nil
}
