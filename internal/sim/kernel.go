package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"hotpotato/internal/mesh"
)

// This file holds the pieces of a step loop that are the same whichever
// engine runs it — the single engine here, the sharded engine
// (internal/shard) and the distributed coordinator (internal/dshard):
// admitting packets, applying a move to its packet, keeping an active list
// sorted, and the stop flag of a Run. Together with NodeRouter (halo.go,
// "route one node") they are the kernel; each exists once, so the engines
// cannot drift apart on them.

// PlaceFunc is how an engine takes delivery of an admitted packet: it
// enqueues p at p.Src when that node still has room under the engine's
// current topology and reports the node's load afterwards, or leaves p
// alone and reports ok == false with the load that left no room.
type PlaceFunc func(p *Packet) (held int, ok bool)

// AdmitInitial validates an initial configuration against the paper's
// many-to-many model — every packet sits at its in-mesh source, IDs are
// unique, no node originates more packets than its out-degree — resets each
// packet's lifecycle fields and absorbs source==destination packets at time
// 0. Every other packet is handed to place, in input order. It returns the
// ID watermark (one past the largest ID).
func AdmitInitial(m *mesh.Mesh, packets []*Packet, place PlaceFunc) (nextID int, err error) {
	ids := make(map[int]struct{}, len(packets))
	for _, p := range packets {
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
		if _, dup := ids[p.ID]; dup {
			return 0, fmt.Errorf("%w: duplicate packet id %d", ErrBadInjection, p.ID)
		}
		ids[p.ID] = struct{}{}
		if p.ID >= nextID {
			nextID = p.ID + 1
		}
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

// SortActive restores the ascending order of an active list (the ids of the
// non-empty queues) after a step's move application or an injection
// perturbed it, and returns it. mark[id] must be true exactly for the ids in
// the list. Dense lists are rebuilt by one ordered scan of the mark bitmap —
// a counting pass with no comparisons; sparse ones fall back to slices.Sort.
// Both paths are allocation-free.
func SortActive[T ~int32](active []T, mark []bool) []T {
	if len(active) <= 1 {
		return active
	}
	if len(active)*4 >= len(mark) {
		active = active[:0]
		for id, m := range mark {
			if m {
				active = append(active, T(id))
			}
		}
		return active
	}
	slices.Sort(active)
	return active
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
