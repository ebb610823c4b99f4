package shard

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"hotpotato/internal/codec"
	"hotpotato/internal/mesh"
	"hotpotato/internal/sim"
)

// Ledger is the global state of a sharded run: everything but the packet
// queues, which live in the shards. It holds the time, the packet counts and
// the ID watermark, the counters a sim.Result reports, the livelock record,
// the recoveries and the packets that have arrived. The in-process Engine
// and dshard's Coordinator both embed it, so a run's manifest, its restore,
// its counters, its Result and its livelock verdict have one definition
// whichever engine steps it. Its mutators are the embedding engine's
// business; callers read Time, Live, Livelocked, Recoveries and Progress.
type Ledger struct {
	time, live, total, lastArrival, nextID int

	totalHops, totalDeflections, reroutes int64
	maxNodeLoad, recoveries               int
	deadlineExceeded                      bool

	// livelockable is whether steps are hashed: detection was asked for, the
	// policy is deterministic and no injector feeds the run.
	livelockable, livelock bool
	seen                   map[uint64]int

	// finalized is append-only (manifests share its backing array, clamped
	// to their own length). arrived holds the arrivals since the last
	// manifest as sim.EncodePacket bytes, decoded only when a manifest is
	// due: total-live-len(finalized) of them. Arrivals are kept in arrival
	// order — within a step shard by shard in index order, within a shard in
	// merge order — which is the same on every engine.
	finalized []sim.PacketState
	arrived   codec.Enc
}

// arrivalBytes is what Admitted reserves per packet for its encoding once it
// arrives; a packet encodes to about 20 bytes on a 64×64 mesh, so a run
// stores its arrivals without growing the buffer.
const arrivalBytes = 32

// NewLedger returns the ledger of a run at time 0 with nothing admitted.
// livelockable says whether the run detects livelocks.
func NewLedger(livelockable bool) Ledger {
	l := Ledger{livelockable: livelockable}
	if livelockable {
		l.seen = make(map[uint64]int)
	}
	return l
}

// Time returns the current step index.
func (l *Ledger) Time() int { return l.time }

// Live returns the number of packets still in the network.
func (l *Ledger) Live() int { return l.live }

// Livelocked reports whether a repeated configuration was detected.
func (l *Ledger) Livelocked() bool { return l.livelock }

// Recoveries returns how many checkpoint rollbacks the run performed.
func (l *Ledger) Recoveries() int { return l.recoveries }

// Recovered counts one more rollback and returns the count.
func (l *Ledger) Recovered() int {
	l.recoveries++
	return l.recoveries
}

// Admitted records a batch the run admitted, the initial population or one
// step's injection, and the ID watermark after it. A packet whose source is
// its destination has arrived already; every other one was placed.
func (l *Ledger) Admitted(batch []*sim.Packet, nextID int) {
	l.nextID = nextID
	l.total += len(batch)
	l.arrived.B = slices.Grow(l.arrived.B, len(batch)*arrivalBytes)
	for _, p := range batch {
		if p.Arrived() {
			l.Arrived(p)
		} else {
			l.live++
		}
	}
}

// Arrived records one packet that reached its destination.
func (l *Ledger) Arrived(p *sim.Packet) { sim.EncodePacket(&l.arrived, p) }

// ArrivedEncoded records packets that reached their destinations, given as
// their sim.EncodePacket bytes back to back.
func (l *Ledger) ArrivedEncoded(b []byte) { l.arrived.B = append(l.arrived.B, b...) }

// Fold adds one shard apply of step t to the run: the time becomes t+1 and
// rep's counters are added. The packets that arrived follow through Arrived
// or ArrivedEncoded.
func (l *Ledger) Fold(t int, rep *ApplyReport) {
	l.time = t + 1
	l.totalHops += rep.Hops
	l.totalDeflections += rep.Deflections
	l.live -= rep.Arrivals
	l.lastArrival = max(l.lastArrival, rep.LastArrival)
	l.reroutes += rep.Reroutes
	l.maxNodeLoad = max(l.maxNodeLoad, rep.MaxNodeLoad)
}

// Hashing reports whether the run hashes its configurations to detect
// livelocks; a step that leaves packets in flight is then Observed.
func (l *Ledger) Hashing() bool { return l.livelockable }

// Observe records the current configuration's hash; one seen before is a
// livelock.
func (l *Ledger) Observe(h uint64) {
	if _, dup := l.seen[h]; dup {
		l.livelock = true
	} else {
		l.seen[h] = l.time
	}
}

// Runnable reports whether the run has work left: packets in flight or a
// source still feeding, no livelock, and steps left in the budget.
func (l *Ledger) Runnable(maxSteps int, feeding bool) bool {
	return (l.live > 0 || feeding) && !l.livelock && l.time < maxSteps
}

// Stopped records that the run stopped before it finished and returns the
// cause ctx gives: nil for a deadline, which sets DeadlineExceeded, or the
// cancellation.
func (l *Ledger) Stopped(ctx context.Context) error {
	err := sim.StopCause(ctx)
	l.deadlineExceeded = err == nil
	return err
}

// Progress returns the run's progress counters, shaped exactly like
// sim.Engine.Progress so frontends report every engine through one code
// path. Sharded runs never drop or absorb packets (no fault injection), so
// those counters are always zero.
func (l *Ledger) Progress() sim.Progress {
	return sim.Progress{
		Time:             l.time,
		Live:             l.live,
		Delivered:        l.total - l.live,
		Total:            l.total,
		TotalHops:        l.totalHops,
		TotalDeflections: l.totalDeflections,
		MaxNodeLoad:      l.maxNodeLoad,
	}
}

// Result summarizes the run under a step budget of maxSteps. The Result type
// is sim's: a sharded run summarizes identically to a single-engine one.
func (l *Ledger) Result(maxSteps int) *sim.Result {
	return &sim.Result{
		Steps:            l.lastArrival,
		Delivered:        l.total - l.live,
		Total:            l.total,
		Livelocked:       l.livelock,
		HitMaxSteps:      l.live > 0 && !l.livelock && !l.deadlineExceeded && l.time >= maxSteps,
		TotalDeflections: l.totalDeflections,
		TotalHops:        l.totalHops,
		MaxNodeLoad:      l.maxNodeLoad,
		Reroutes:         l.reroutes,
		DeadlineExceeded: l.deadlineExceeded,
	}
}

// Config is the configuration of a sharded run: what its manifests record
// and what Checkpoint.Check holds a checkpoint to.
type Config struct {
	Mesh           *mesh.Mesh
	Policy         string // the policy's display name, sim.Policy.Name
	Seed           int64
	MaxSteps       int
	Validation     sim.ValidationLevel
	DetectLivelock bool
	Grid           Grid
	// Injector is whether a traffic source feeds the run. Its state is the
	// Engine's to add to a manifest.
	Injector bool
}

// Manifest captures the ledger as the manifest of a checkpoint of a run
// configured as cfg, decoding the arrivals it holds as bytes. It fails only
// when those bytes do not decode.
func (l *Ledger) Manifest(cfg Config) (Manifest, error) {
	d := codec.Dec{B: l.arrived.B}
	pending := l.total - l.live - len(l.finalized)
	l.finalized = slices.Grow(l.finalized, pending)
	for ; pending > 0; pending-- {
		var ps sim.PacketState
		ps.Decode(&d)
		l.finalized = append(l.finalized, ps)
	}
	if err := d.Done(); err != nil {
		return Manifest{}, fmt.Errorf("shard: finalized packets: %w", err)
	}
	l.arrived.B = l.arrived.B[:0]
	m := Manifest{
		Version:          CheckpointVersion,
		MeshDim:          cfg.Mesh.Dim(),
		MeshSide:         cfg.Mesh.Side(),
		MeshWrap:         cfg.Mesh.Wrap(),
		PolicyName:       cfg.Policy,
		Seed:             cfg.Seed,
		MaxSteps:         cfg.MaxSteps,
		Validation:       cfg.Validation,
		DetectLive:       cfg.DetectLivelock,
		Grid:             cfg.Grid.String(),
		Time:             l.time,
		LastArrival:      l.lastArrival,
		NextID:           l.nextID,
		Live:             l.live,
		Livelocked:       l.livelock,
		Shards:           cfg.Grid.Count(),
		TotalDeflections: l.totalDeflections,
		TotalHops:        l.totalHops,
		MaxNodeLoad:      l.maxNodeLoad,
		Reroutes:         l.reroutes,
		Recoveries:       l.recoveries,
		HasInjector:      cfg.Injector,
		Finalized:        l.finalized[:len(l.finalized):len(l.finalized)],
	}
	if l.seen != nil {
		m.Seen = make([]sim.SeenState, 0, len(l.seen))
		for h, t := range l.seen {
			m.Seen = append(m.Seen, sim.SeenState{Hash: h, Time: t})
		}
		sort.Slice(m.Seen, func(i, j int) bool { return m.Seen[i].Time < m.Seen[j].Time })
	}
	return m, nil
}

// Restore resets the ledger to a manifest that Checkpoint.Check has passed:
// the resume path and every rollback go through it. The recovery count is
// the run's own and survives.
func (l *Ledger) Restore(m *Manifest) {
	l.time, l.live, l.total = m.Time, m.Live, m.Live+len(m.Finalized)
	l.lastArrival, l.nextID, l.livelock = m.LastArrival, m.NextID, m.Livelocked
	l.totalDeflections, l.totalHops = m.TotalDeflections, m.TotalHops
	l.maxNodeLoad, l.reroutes = m.MaxNodeLoad, m.Reroutes
	l.deadlineExceeded = false
	l.finalized = m.Finalized[:len(m.Finalized):len(m.Finalized)]
	l.arrived.B = slices.Grow(l.arrived.B[:0], l.live*arrivalBytes)
	if l.livelockable {
		l.seen = make(map[uint64]int, len(m.Seen))
		for _, sn := range m.Seen {
			l.seen[sn.Hash] = sn.Time
		}
	}
}
