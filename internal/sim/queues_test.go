package sim

import (
	"math/rand"
	"slices"
	"testing"

	"hotpotato/internal/mesh"
)

// checkQueues asserts everything the step loop assumes about a Queues: the
// active list is strictly ascending and is exactly the set of non-empty
// queues, and both bitset levels agree with the lengths. It returns the
// number of queued packets.
func checkQueues(t *testing.T, q *Queues, step int) int {
	t.Helper()
	active := q.Active()
	for i := 1; i < len(active); i++ {
		if active[i-1] >= active[i] {
			t.Fatalf("step %d: active list not strictly increasing at %d: %v", step, i, active)
		}
	}
	queued, next := 0, 0
	for i := range q.n {
		occupied := q.Len(i) > 0
		listed := next < len(active) && int(active[next]) == i
		if listed {
			next++
		}
		if occupied != listed {
			t.Fatalf("step %d: node %d holds %d packets but listed active=%v", step, i, q.Len(i), listed)
		}
		if bit := q.bits[i>>6]>>(i&63)&1 == 1; bit != occupied {
			t.Fatalf("step %d: node %d occupancy bit %v, holds %d packets", step, i, bit, q.Len(i))
		}
		queued += q.Len(i)
	}
	for w, word := range q.bits {
		if bit := q.summary[w>>6]>>(w&63)&1 == 1; bit != (word != 0) {
			t.Fatalf("step %d: summary bit of word %d is %v, word %#x", step, w, bit, word)
		}
	}
	return queued
}

// checkEngineQueues checks the engine's queues and that they hold exactly
// its live packets, each once, at the node it sits on.
func checkEngineQueues(t *testing.T, e *Engine) {
	t.Helper()
	if queued := checkQueues(t, &e.q, e.time); queued != e.live {
		t.Fatalf("step %d: %d packets queued, %d live", e.time, queued, e.live)
	}
	seen := make(map[*Packet]bool, e.live)
	for _, node := range e.q.Active() {
		for _, p := range e.q.At(int(node)) {
			if seen[p] || p.Node != mesh.NodeID(node) || p.Arrived() || p.Dropped() {
				t.Fatalf("step %d: queue of node %d holds %v (seen before: %v)", e.time, node, p, seen[p])
			}
			seen[p] = true
		}
	}
	for _, p := range e.packets {
		if live := !p.Arrived() && !p.Dropped(); live != seen[p] {
			t.Fatalf("step %d: %v live=%v but queued=%v", e.time, p, live, seen[p])
		}
	}
}

// stepAllChecked steps the engine to completion, checking the queues
// between every step.
func stepAllChecked(t *testing.T, e *Engine, maxSteps int) {
	t.Helper()
	checkEngineQueues(t, e)
	for e.live > 0 && e.time < maxSteps {
		if err := e.Step(); err != nil {
			t.Fatalf("step %d: %v", e.time, err)
		}
		checkEngineQueues(t, e)
	}
	if e.live > 0 {
		t.Fatalf("run did not finish within %d steps", maxSteps)
	}
}

// TestQueuesDenseAllNodes starts with every node of the mesh occupied and
// runs until the network has thinned out to nothing.
func TestQueuesDenseAllNodes(t *testing.T) {
	m := mesh.MustNewTorus(2, 6)
	rng := rand.New(rand.NewSource(4))
	var pkts []*Packet
	for n := 0; n < m.Size(); n++ {
		for j := 0; j < 2; j++ {
			pkts = append(pkts, NewPacket(len(pkts), mesh.NodeID(n), mesh.NodeID(rng.Intn(m.Size()))))
		}
	}
	e, err := New(m, firstGoodPolicy(), pkts, Options{Validation: ValidateBasic, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(e.q.Active()); got != m.Size() {
		t.Fatalf("initially active nodes = %d, want all %d", got, m.Size())
	}
	stepAllChecked(t, e, 4000)
}

// TestQueuesSingleNode: one packet, one active node throughout.
func TestQueuesSingleNode(t *testing.T) {
	m := mesh.MustNew(2, 8)
	p := NewPacket(0, m.ID([]int{0, 0}), m.ID([]int{7, 7}))
	e, err := New(m, firstGoodPolicy(), []*Packet{p}, Options{Validation: ValidateBasic})
	if err != nil {
		t.Fatal(err)
	}
	for e.live > 0 {
		if got := len(e.q.Active()); got != 1 {
			t.Fatalf("step %d: %d active nodes, want exactly 1", e.time, got)
		}
		checkEngineQueues(t, e)
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	checkEngineQueues(t, e)
}

// TestQueuesSparse keeps a handful of packets on a mesh with far more nodes,
// so move application lands them in scattered words every step.
func TestQueuesSparse(t *testing.T) {
	m := mesh.MustNewTorus(2, 16)
	pkts := []*Packet{
		NewPacket(0, m.ID([]int{15, 3}), m.ID([]int{2, 9})),
		NewPacket(1, m.ID([]int{0, 12}), m.ID([]int{8, 1})),
		NewPacket(2, m.ID([]int{7, 7}), m.ID([]int{15, 0})),
		NewPacket(3, m.ID([]int{3, 15}), m.ID([]int{3, 2})),
		NewPacket(4, m.ID([]int{12, 0}), m.ID([]int{1, 14})),
	}
	e, err := New(m, firstGoodPolicy(), pkts, Options{Validation: ValidateBasic, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	stepAllChecked(t, e, 4000)
}

// TestQueuesWordBoundaries runs packets out of the nodes on either side of a
// bitset word (63/64) and of a summary word (4095/4096), and out of the last
// node, on a mesh whose 4225 nodes are not a multiple of 64.
func TestQueuesWordBoundaries(t *testing.T) {
	m := mesh.MustNew(2, 65)
	var pkts []*Packet
	for _, src := range []mesh.NodeID{63, 64, 4095, 4096, mesh.NodeID(m.Size() - 1)} {
		for _, dst := range []mesh.NodeID{0, mesh.NodeID(m.Size()/2 + 7)} {
			pkts = append(pkts, NewPacket(len(pkts), src, dst))
		}
	}
	e, err := New(m, firstGoodPolicy(), pkts, Options{Validation: ValidateBasic, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.q.Active(), []int32{63, 64, 4095, 4096, int32(m.Size() - 1)}; !slices.Equal(got, want) {
		t.Fatalf("initial active list %v, want %v", got, want)
	}
	stepAllChecked(t, e, 4000)
}

// TestQueuesPushTruncateClear drives the type directly across the same
// boundaries: a full queue refuses a push without writing, emptying the last
// node of a word clears its summary bit, and Clear leaves nothing set.
func TestQueuesPushTruncateClear(t *testing.T) {
	const nodes = 4096 + 64 + 7
	q := NewQueues(nodes, 4, func(i int) int { return 2 + i%3 })
	var pkts [4]Packet
	extra := &Packet{}
	ids := []int{nodes - 1, 4096, 64, 4095, 0, 63}
	for _, i := range ids {
		for j := 0; j < int(q.limit[i]); j++ {
			if !q.Push(i, &pkts[j]) {
				t.Fatalf("push %d onto node %d refused", j, i)
			}
		}
		if q.Push(i, extra) {
			t.Fatalf("node %d accepted a packet past its capacity %d", i, q.limit[i])
		}
	}
	if slices.Contains(q.slots, extra) {
		t.Fatal("a refused push wrote into the slots")
	}
	slices.Sort(ids)
	want := make([]int32, len(ids))
	for k, i := range ids {
		want[k] = int32(i)
	}
	if got := q.Active(); !slices.Equal(got, want) {
		t.Fatalf("active %v, want %v", got, want)
	}
	checkQueues(t, &q, 0)
	q.Truncate(4096, 1)
	q.Truncate(63, 0)
	if got := q.Active(); !slices.Equal(got, []int32{0, 64, 4095, 4096, nodes - 1}) {
		t.Fatalf("after truncating node 63: active %v", got)
	}
	q.Truncate(0, 0)
	if q.summary[0]&1 != 0 {
		t.Fatal("word 0 is empty but its summary bit is still set")
	}
	checkQueues(t, &q, 1)
	q.Clear()
	if got := checkQueues(t, &q, 2); got != 0 || len(q.Active()) != 0 {
		t.Fatalf("Clear left %d packets, active %v", got, q.Active())
	}
	for w, word := range q.bits {
		if word != 0 {
			t.Fatalf("Clear left bit word %d = %#x", w, word)
		}
	}
}

// burstInjector injects a burst of packets at scattered nodes every step
// until step last, always within the per-node injection capacity.
type burstInjector struct {
	last int
	per  int
}

func (b *burstInjector) Exhausted(t int) bool { return t > b.last }

func (b *burstInjector) Inject(t int, e InjectorHost, rng *rand.Rand) []*Packet {
	if t > b.last {
		return nil
	}
	m := e.Mesh()
	var out []*Packet
	mine := make(map[mesh.NodeID]int) // this call's own picks count against capacity
	id := e.NextPacketID()
	for i := 0; i < b.per; i++ {
		node := mesh.NodeID(rng.Intn(m.Size()))
		if e.InjectionCapacity(node)-mine[node] <= 0 {
			continue // skip full nodes; capacity is rechecked fresh each step
		}
		mine[node]++
		out = append(out, NewPacket(id, node, mesh.NodeID(rng.Intn(m.Size()))))
		id++
	}
	return out
}

// TestQueuesAfterInjection: each step begins by pushing packets onto
// arbitrary — often idle — nodes, and the active list must take them in
// order before routing.
func TestQueuesAfterInjection(t *testing.T) {
	m := mesh.MustNewTorus(2, 8)
	e, err := New(m, firstGoodPolicy(), nil, Options{Validation: ValidateBasic, Seed: 2, MaxSteps: 4000})
	if err != nil {
		t.Fatal(err)
	}
	e.SetInjector(&burstInjector{last: 30, per: 6})
	checkEngineQueues(t, e)
	for e.time < 4000 {
		if err := e.Step(); err != nil {
			t.Fatalf("step %d: %v", e.time, err)
		}
		checkEngineQueues(t, e)
		if e.time > 30 && e.live == 0 {
			break
		}
	}
	if e.live != 0 {
		t.Fatalf("injected traffic never drained: %d live at step %d", e.live, e.time)
	}
	if e.nextID == 0 {
		t.Fatal("injector never injected")
	}
}

// crashNodes fails the given nodes at step at.
type crashNodes struct {
	at    int
	nodes []mesh.NodeID
}

func (c crashNodes) Advance(t int, o *mesh.Overlay, _ *rand.Rand) {
	if t == c.at {
		for _, n := range c.nodes {
			o.FailNode(n)
		}
	}
}

// TestQueuesFaultDegrade: a crash empties occupied nodes in the middle of a
// run; the degradation pass must take them off the active list.
func TestQueuesFaultDegrade(t *testing.T) {
	const at = 3
	m := mesh.MustNew(2, 10)
	packets := parityPackets(m, 2*m.Size(), 7)
	opts := Options{Validation: ValidateBasic, Seed: 7}
	// A fault-free twin finds three nodes that hold packets at step at.
	ref, err := New(m, firstGoodPolicy(), clonePackets(packets), opts)
	if err != nil {
		t.Fatal(err)
	}
	for ref.time < at {
		if err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}
	active := ref.q.Active()
	victims := []mesh.NodeID{mesh.NodeID(active[0]), mesh.NodeID(active[len(active)/2]), mesh.NodeID(active[len(active)-1])}

	e, err := New(m, firstGoodPolicy(), packets, opts)
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaults(crashNodes{at: at, nodes: victims}, FateDrop)
	for e.time <= at {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		checkEngineQueues(t, e)
	}
	if e.dropCrash == 0 {
		t.Fatal("the crash dropped nothing")
	}
	for _, v := range victims {
		if e.q.Len(int(v)) != 0 {
			t.Fatalf("crashed node %d holds %d packets", v, e.q.Len(int(v)))
		}
	}
	// A deterministic policy may bounce a packet whose good arcs died forever,
	// so the run is checked for a while rather than to completion.
	for e.live > 0 && e.time < 200 {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		checkEngineQueues(t, e)
	}
}
