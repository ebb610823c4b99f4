package sim

import (
	"math/rand"

	"hotpotato/internal/mesh"
	"hotpotato/internal/rng"
)

// FaultModel mutates the engine's failure overlay at the beginning of each
// step, before injection and routing. Advance must be deterministic given
// its own state and the RNG stream and is only called with non-decreasing t.
//
// The interface is structurally identical to fault.Model, so every model in
// internal/fault plugs in directly (package sim does not import package
// fault; the dependency points the other way only at the call sites that
// wire the two together).
type FaultModel interface {
	Advance(t int, o *mesh.Overlay, rng *rand.Rand)
}

// PacketFate selects what happens to the packets sitting in a node when it
// crashes.
type PacketFate int

const (
	// FateDrop discards crash victims; they count as Dropped (cause
	// DropCrash). This models a router losing its in-flight buffers.
	FateDrop PacketFate = iota
	// FateAbsorb terminates crash victims at the crashed node; they count as
	// Absorbed, separate from drops. This models hosts that consume whatever
	// the dying router held (the optimistic accounting bound).
	FateAbsorb
)

// String renders the fate.
func (f PacketFate) String() string {
	switch f {
	case FateDrop:
		return "drop"
	case FateAbsorb:
		return "absorb"
	}
	return "PacketFate(?)"
}

// DropCause records why the engine removed a packet from the network
// without delivering it. It is a byte so that it fits the tail of a Packet.
type DropCause uint8

const (
	// DropNone marks a packet that is live, delivered, or not yet injected.
	DropNone DropCause = iota
	// DropCrash marks a packet that sat in a node when it crashed.
	DropCrash
	// DropUnreachable marks a packet whose destination was down when the
	// failure set changed.
	DropUnreachable
	// DropStranded marks a packet shed because its node's surviving
	// out-degree fell below its load (the hot-potato constraint would be
	// unsatisfiable otherwise).
	DropStranded
	// DropInject marks an injected packet refused gracefully because the
	// failure set left no room for it (source or destination down, or the
	// source's surviving degree already full).
	DropInject
)

// String renders the cause.
func (c DropCause) String() string {
	switch c {
	case DropNone:
		return "none"
	case DropCrash:
		return "crash"
	case DropUnreachable:
		return "unreachable"
	case DropStranded:
		return "stranded"
	case DropInject:
		return "inject"
	}
	return "DropCause(?)"
}

// faultStreamSalt separates the fault RNG stream from every routing and
// tie-breaking stream derived from the same engine seed.
const faultStreamSalt int64 = 0x0fa171

// SetFaults overlays the mesh with a mutable failure view and installs a
// fault model that is advanced at the beginning of every step (before
// injection and routing). fate selects what happens to packets caught in a
// crashing node; packets stranded by lost capacity or cut off from a downed
// destination are always dropped, with per-cause accounting in the Result.
//
// The model draws from a dedicated RNG stream derived from Options.Seed, so
// a (seed, model) pair reproduces the same fault sequence regardless of the
// policy and the traffic. Routing itself sees the overlay through its
// masked table: HasArc, Degree and GoodDirs reflect the surviving arcs,
// while distances stay geometric (a bufferless router has no global failure
// map to recompute routes with).
//
// Installing faults disables livelock detection: the configuration is no
// longer closed, so a repeated packet state does not imply a loop. Call
// before the first Step; the engine does not support swapping models
// mid-run.
func (e *Engine) SetFaults(model FaultModel, fate PacketFate) {
	e.faults = model
	e.fate = fate
	e.overlay = mesh.NewOverlay(e.mesh)
	// Every lookup must see the failure set from now on, so the router is
	// rebuilt over the overlay's table in place of the mesh's shared one.
	e.topo = e.overlay.Tables
	e.router = NewNodeRouter(e.topo, e.policy, e.opts.Seed, e.opts.Validation)
	e.faultVersion = e.overlay.Version()
	e.faultRng = rand.New(rand.NewSource(rng.Mix(e.opts.Seed, faultStreamSalt)))
	e.livelockable = false
}

// Topology returns the table the engine routes against: the mesh's shared
// one, or the failure overlay's masked copy once SetFaults is installed.
func (e *Engine) Topology() *mesh.Tables { return e.topo }

// Overlay returns the failure overlay, or nil when no fault model is
// installed. Callers must not mutate it while the engine runs.
func (e *Engine) Overlay() *mesh.Overlay { return e.overlay }

// applyFaults advances the fault model and, when the failure set changed,
// runs the degradation pass that restores the engine invariants.
func (e *Engine) applyFaults() {
	e.faults.Advance(e.time, e.overlay, e.faultRng)
	if v := e.overlay.Version(); v != e.faultVersion {
		e.faultVersion = v
		e.degrade()
	}
}

// markDropped records the removal of a live packet by fault degradation and
// updates the per-cause counters. Callers adjust e.live themselves.
func (e *Engine) markDropped(p *Packet, cause DropCause) {
	p.DroppedAt = e.time
	p.Cause = cause
	if cause == DropCrash && e.fate == FateAbsorb {
		e.absorbed++
		return
	}
	e.dropped++
	switch cause {
	case DropCrash:
		e.dropCrash++
	case DropUnreachable:
		e.dropUnreachable++
	case DropStranded:
		e.dropStranded++
	}
}

// degrade walks the occupied nodes and removes every packet the new failure
// set makes unroutable, so that routing always starts from a legal
// configuration (every node's load at most its surviving out-degree, no
// packet in or destined to a down node):
//
//   - packets in a crashed node suffer the configured PacketFate;
//   - packets whose destination is down are dropped (DropUnreachable) — a
//     pessimistic choice under transient crash models, but it keeps the
//     delivery accounting exact instead of letting orphans wander to the
//     step budget;
//   - excess packets beyond the surviving out-degree are shed from the top
//     of the node's queue (DropStranded), deterministically.
//
// Between failure transitions the invariants are self-preserving: link
// failures are bidirectional, so every node's in-degree equals its
// out-degree and a legal step cannot overfill a node; arcs into down nodes
// are gone, so no packet can enter one.
func (e *Engine) degrade() {
	for _, id := range e.q.Active() {
		node, pkts := mesh.NodeID(id), e.q.At(int(id))
		if e.overlay.NodeDown(node) {
			for _, p := range pkts {
				e.markDropped(p, DropCrash)
				e.live--
			}
			e.q.Truncate(int(id), 0)
			continue
		}
		w := 0
		for _, p := range pkts {
			if e.overlay.NodeDown(p.Dst) {
				e.markDropped(p, DropUnreachable)
				e.live--
				continue
			}
			pkts[w] = p
			w++
		}
		pkts = pkts[:w]
		if deg := e.overlay.Degree(node); len(pkts) > deg {
			for _, p := range pkts[deg:] {
				e.markDropped(p, DropStranded)
				e.live--
			}
			pkts = pkts[:deg]
		}
		e.q.Truncate(int(id), len(pkts))
	}
}
