package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
	"time"

	"hotpotato/internal/mesh"
)

// This file holds the pieces of a step loop that are the same whichever
// engine runs it — the single engine here, the sharded engine
// (internal/shard) and the distributed coordinator (internal/dshard):
// admitting packets, applying a move to its packet, the per-node queues with
// their active list, and the stop flag of a Run. Together with NodeRouter
// (halo.go, "route one node") they are the kernel; each exists once, so the
// engines cannot drift apart on them.

// PlaceFunc is how an engine takes delivery of an admitted packet: it
// enqueues p at p.Src when that node still has room under the engine's
// current topology and reports the node's load afterwards, or leaves p
// alone and reports ok == false with the load that left no room.
type PlaceFunc func(p *Packet) (held int, ok bool)

// AdmitInitial validates an initial configuration against the paper's
// many-to-many model — every packet sits at its in-mesh source, IDs are
// unique, no node originates more packets than its out-degree — resets each
// packet's lifecycle fields and absorbs source==destination packets at time
// 0. Every other packet is handed to place, in input order, once the whole
// batch has passed the checks; uniqueness is DuplicateID on one scratch
// slice of the IDs, as on every restore path. It returns the ID watermark
// (one past the largest ID).
func AdmitInitial(m *mesh.Mesh, packets []*Packet, place PlaceFunc) (nextID int, err error) {
	ids := make([]int, len(packets))
	for i, p := range packets {
		if p == nil {
			return 0, fmt.Errorf("%w: nil packet", ErrBadInjection)
		}
		if err := m.CheckID(p.Src); err != nil {
			return 0, fmt.Errorf("%w: packet %d source: %v", ErrBadInjection, p.ID, err)
		}
		if err := m.CheckID(p.Dst); err != nil {
			return 0, fmt.Errorf("%w: packet %d destination: %v", ErrBadInjection, p.ID, err)
		}
		if p.Node != p.Src {
			return 0, fmt.Errorf("%w: packet %d not at its source", ErrBadInjection, p.ID)
		}
		ids[i] = p.ID
	}
	if id, dup := DuplicateID(ids); dup {
		return 0, fmt.Errorf("%w: duplicate packet id %d", ErrBadInjection, id)
	}
	if len(ids) > 0 {
		nextID = max(ids[len(ids)-1]+1, 0)
	}
	for _, p := range packets {
		p.Cause = DropNone
		p.DroppedAt = -1
		if p.Src == p.Dst {
			p.ArrivedAt = 0
			continue
		}
		p.ArrivedAt = -1
		if held, ok := place(p); !ok {
			return 0, fmt.Errorf("%w: node %d originates %d packets, out-degree %d",
				ErrBadInjection, p.Src, held+1, m.Degree(p.Src))
		}
	}
	return nextID, nil
}

// AdmitInjected validates the batch an injector returned for step t and
// stamps the packets' lifecycle fields. Injector bugs — nil packets,
// off-mesh endpoints, reused IDs, exceeding the intact mesh's capacity — are
// hard errors; a packet place refuses although the intact mesh would have
// had room (the failure set ate the capacity) is refused gracefully with
// cause DropInject and counted in refused.
//
// floor is the ID watermark before the injector ran and nextID the
// watermark now (the injector may have drawn IDs in between); the advanced
// watermark is returned (on error the run is over and the results are zero). Freshness is enforced with the watermark alone:
// every ID accepted before this batch is below floor, and the floor then
// climbs past each accepted packet, so reused IDs and duplicates within the
// batch are rejected while anything monotone (NextPacketID in particular)
// passes, and the used-ID record stays O(1).
func AdmitInjected(m *mesh.Mesh, t int, batch []*Packet, floor, nextID int, place PlaceFunc) (newNextID, refused int, err error) {
	for _, p := range batch {
		if p == nil {
			return 0, 0, fmt.Errorf("%w: injector returned nil packet at step %d", ErrBadInjection, t)
		}
		if err := m.CheckID(p.Src); err != nil {
			return 0, 0, fmt.Errorf("%w: injected packet %d source: %v", ErrBadInjection, p.ID, err)
		}
		if err := m.CheckID(p.Dst); err != nil {
			return 0, 0, fmt.Errorf("%w: injected packet %d destination: %v", ErrBadInjection, p.ID, err)
		}
		if p.Node != p.Src {
			return 0, 0, fmt.Errorf("%w: injected packet %d not at its source", ErrBadInjection, p.ID)
		}
		if p.ID < floor {
			return 0, 0, fmt.Errorf("%w: injected packet reuses id %d (or breaks the increasing-id contract, watermark %d) at step %d",
				ErrBadInjection, p.ID, floor, t)
		}
		floor = p.ID + 1
		if p.ID >= nextID {
			nextID = p.ID + 1
		}
		p.InjectedAt = t
		p.Cause = DropNone
		p.DroppedAt = -1
		if p.Src == p.Dst {
			p.ArrivedAt = t
			continue
		}
		p.ArrivedAt = -1
		if held, ok := place(p); !ok {
			if deg := m.Degree(p.Src); held >= deg {
				return 0, 0, fmt.Errorf("%w: step %d node %d injection exceeds out-degree %d",
					ErrBadInjection, t, p.Src, deg)
			}
			p.DroppedAt = t
			p.Cause = DropInject
			refused++
		}
	}
	return nextID, refused, nil
}

// MoveTally accumulates what applying moves changes besides the packets
// themselves.
type MoveTally struct {
	Hops        int64
	Deflections int64
	Arrivals    int
}

// Apply carries out one move of the step that ends at time now: the packet's
// position, entry arc, history flags and counters. It reports whether the
// packet is still in the network, i.e. must be enqueued at mv.To.
func (c *MoveTally) Apply(mv *Move, now int) (live bool) {
	p := mv.Packet
	p.GoodPrev = mv.GoodCount
	p.RestrictedPrev = mv.WasRestricted
	p.AdvancedPrev = mv.Advanced
	p.Node = mv.To
	p.EnteredVia = mv.Dir
	p.Hops++
	c.Hops++
	if !mv.Advanced {
		p.Deflections++
		c.Deflections++
	}
	if mv.ArrivedNow {
		p.ArrivedAt = now
		c.Arrivals++
		return false
	}
	return true
}

// Queues holds the packets of a set of nodes — the whole mesh for the single
// engine, one shard's rectangle (by local index) for the sharded ones — and
// their active list: the ascending indices of the non-empty queues, the
// order every engine routes, hashes and captures in. A node's queue is a
// run of stride slots in one flat array plus a uint8 length, so queueing is
// a store and never allocates. Occupancy is a two-level bitset (one bit per
// node, one summary bit per 64-node word): the active list is rebuilt by
// scanning set bits in O(active + nodes/4096), with no comparison sort, and
// Clear touches only the occupied nodes and their words.
//
// Queues must not be copied once used. It is single-goroutine state.
type Queues struct {
	stride  int
	slots   []*Packet
	n       []uint8 // queue length per node
	limit   []uint8 // queue capacity per node: its intact out-degree
	bits    []uint64
	summary []uint64
	active  []int32
	dirty   bool // active is stale: a queue was filled or emptied since the scan
}

// NewQueues returns empty queues for nodes 0..nodes-1 with stride slots each;
// node i holds at most capacity(i) ≤ stride packets.
func NewQueues(nodes, stride int, capacity func(i int) int) Queues {
	// Lengths and capacities share one allocation, as do both bitset levels.
	counts := make([]uint8, 2*nodes)
	nw := (nodes + 63) / 64
	words := make([]uint64, nw+(nw+63)/64)
	q := Queues{
		stride:  stride,
		slots:   make([]*Packet, nodes*stride),
		n:       counts[:nodes:nodes],
		limit:   counts[nodes:],
		bits:    words[:nw:nw],
		summary: words[nw:],
	}
	for i := range q.limit {
		q.limit[i] = uint8(capacity(i))
	}
	return q
}

// Len returns the number of packets queued at node i.
func (q *Queues) Len(i int) int { return int(q.n[i]) }

// At returns node i's queue in queue order. The slice aliases q (its
// capacity is its length, so an append copies instead of overwriting the
// next node) and is valid until the queue changes.
func (q *Queues) At(i int) []*Packet {
	o := i * q.stride
	end := o + int(q.n[i])
	return q.slots[o:end:end]
}

// Push appends p to node i's queue if the node has room and reports whether
// it did; a full queue is left untouched.
func (q *Queues) Push(i int, p *Packet) bool {
	n := q.n[i]
	if n >= q.limit[i] {
		return false
	}
	q.slots[i*q.stride+int(n)] = p
	q.n[i] = n + 1
	q.bits[i>>6] |= 1 << (i & 63)
	q.summary[i>>12] |= 1 << (i >> 6 & 63)
	q.dirty = true
	return true
}

// Truncate keeps the first n packets of node i's queue (n ≤ Len(i)).
func (q *Queues) Truncate(i, n int) {
	q.n[i] = uint8(n)
	if n > 0 {
		return
	}
	w := i >> 6
	if q.bits[w] &^= 1 << (i & 63); q.bits[w] == 0 {
		q.summary[w>>6] &^= 1 << (w & 63)
	}
	q.dirty = true
}

// Active returns the indices of the non-empty queues in ascending order. The
// slice is owned by q and valid until the queues change.
func (q *Queues) Active() []int32 {
	if !q.dirty {
		return q.active
	}
	a := q.active[:0]
	for s, sw := range q.summary {
		for ; sw != 0; sw &= sw - 1 {
			w := s<<6 | bits.TrailingZeros64(sw)
			for word := q.bits[w]; word != 0; word &= word - 1 {
				a = append(a, int32(w<<6|bits.TrailingZeros64(word)))
			}
		}
	}
	q.active, q.dirty = a, false
	return a
}

// Clear empties every queue.
func (q *Queues) Clear() {
	for _, i := range q.Active() {
		q.n[i] = 0
		q.bits[i>>6] = 0
		q.summary[i>>12] = 0
	}
	q.active = q.active[:0]
}

// DuplicateID sorts ids in place and returns one that occurs more than once,
// if any — the uniqueness check every restore path applies to the packet IDs
// it is handed.
func DuplicateID(ids []int) (id int, dup bool) {
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return ids[i], true
		}
	}
	return 0, false
}

// StopFlag unifies every reason a Run must stop between steps — a ctx
// cancellation, a ctx deadline, a wall-clock bound — into one atomic flag,
// so the step loop pays a single atomic load per step instead of a
// time.Now() call and the mechanisms can never disagree. The wall-clock
// bound arms a timer (no goroutine while waiting); a cancellable ctx gets a
// watcher goroutine, released by Release.
type StopFlag struct {
	flag  atomic.Bool
	timer *time.Timer
	quit  chan struct{}
}

// NewStopFlag arms a flag from ctx and maxWall (0 = no wall-clock bound).
// The caller must Release it.
func NewStopFlag(ctx context.Context, maxWall time.Duration) *StopFlag {
	s := &StopFlag{}
	s.flag.Store(ctx.Err() != nil) // already stopped: not one step may run before the watcher is scheduled
	if maxWall > 0 {
		s.timer = time.AfterFunc(maxWall, func() { s.flag.Store(true) })
	}
	if done := ctx.Done(); done != nil {
		s.quit = make(chan struct{})
		go func() {
			select {
			case <-done:
				s.flag.Store(true)
			case <-s.quit:
			}
		}()
	}
	return s
}

// Stopped reports whether any stop source has fired.
func (s *StopFlag) Stopped() bool { return s.flag.Load() }

// Release stops the timer and the watcher goroutine.
func (s *StopFlag) Release() {
	if s.timer != nil {
		s.timer.Stop()
	}
	if s.quit != nil {
		close(s.quit)
	}
}

// StopCause resolves why a run that still had work left stopped: a
// cancelled ctx returns its error, so callers can tell an interrupted run
// from an exhausted one; nil means the deadline — the wall-clock timer or
// the ctx deadline, unified.
func StopCause(ctx context.Context) error {
	if err := ctx.Err(); errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}
