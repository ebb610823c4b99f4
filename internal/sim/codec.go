package sim

import (
	"fmt"

	"hotpotato/internal/codec"
	"hotpotato/internal/mesh"
)

// This file is the binary form of the snapshot types: the one PacketState
// field codec (shared by HPCK checkpoints and the dshard wire),
// Snapshot's encoding.BinaryAppender / BinaryUnmarshaler pair, and the
// engine's own AppendBinary, which writes the same bytes through the same
// head, packet, queue and tail code. Fields are written in declaration
// order as codec varints; a layout change is a SnapshotVersion bump.

// Encode appends the packet's fields: ID, Src, Dst, Node, EnteredVia,
// InjectedAt, Class, ArrivedAt, DroppedAt, Cause, Hops, Deflections, one
// flags byte (1 = AdvancedPrev, 2 = RestrictedPrev), GoodPrev.
func (ps *PacketState) Encode(e *codec.Enc) {
	e.Num(ps.ID)
	e.I64(int64(ps.Src))
	e.I64(int64(ps.Dst))
	e.I64(int64(ps.Node))
	e.I64(int64(ps.EnteredVia))
	e.Num(ps.InjectedAt)
	e.Num(ps.Class)
	e.Num(ps.ArrivedAt)
	e.Num(ps.DroppedAt)
	e.Num(int(ps.Cause))
	e.Num(ps.Hops)
	e.Num(ps.Deflections)
	var flags byte
	if ps.AdvancedPrev {
		flags |= 1
	}
	if ps.RestrictedPrev {
		flags |= 2
	}
	e.Byte(flags)
	e.Num(ps.GoodPrev)
}

// Decode reads what Encode wrote.
func (ps *PacketState) Decode(d *codec.Dec) {
	ps.ID = d.Num()
	ps.Src = mesh.NodeID(d.I32())
	ps.Dst = mesh.NodeID(d.I32())
	ps.Node = mesh.NodeID(d.I32())
	ps.EnteredVia = mesh.Dir(d.I8())
	ps.InjectedAt = d.Num()
	ps.Class = d.Num()
	ps.ArrivedAt = d.Num()
	ps.DroppedAt = d.Num()
	ps.Cause = DropCause(d.Num())
	ps.Hops = d.Num()
	ps.Deflections = d.Num()
	flags := d.Byte()
	if flags > 3 {
		d.Fail("unknown packet flags")
	}
	ps.AdvancedPrev = flags&1 != 0
	ps.RestrictedPrev = flags&2 != 0
	ps.GoodPrev = d.Num()
}

// EncodePacket appends a live packet's fields: exactly the bytes
// CapturePacket(p).Encode writes, through that same Encode, without a
// PacketState copy of the packet left behind. The engine's AppendBinary and
// dshard's LOAD bodies, halo moves and arrivals all encode packets with it.
func EncodePacket(e *codec.Enc, p *Packet) {
	var ps PacketState
	ps.capture(p)
	ps.Encode(e)
}

// EncodePackets appends a counted packet list.
func EncodePackets(e *codec.Enc, pkts []PacketState) {
	e.U64(uint64(len(pkts)))
	for i := range pkts {
		pkts[i].Encode(e)
	}
}

// DecodePackets reads a counted packet list (nil when empty); what names the
// list in the error of an oversized count.
func DecodePackets(d *codec.Dec, what string) []PacketState {
	n := d.Count(what)
	if n == 0 {
		return nil
	}
	pkts := make([]PacketState, n)
	for i := range pkts {
		pkts[i].Decode(d)
	}
	return pkts
}

// EncodeSeen and DecodeSeen are the livelock detector's hash memory, shared
// with shard.Manifest.
func EncodeSeen(e *codec.Enc, seen []SeenState) {
	e.U64(uint64(len(seen)))
	for _, s := range seen {
		e.U64(s.Hash)
		e.Num(s.Time)
	}
}

func DecodeSeen(d *codec.Dec) []SeenState {
	n := d.Count("seen")
	if n == 0 {
		return nil
	}
	seen := make([]SeenState, n)
	for i := range seen {
		seen[i] = SeenState{Hash: d.U64(), Time: d.Num()}
	}
	return seen
}

// AppendBinary implements encoding.BinaryAppender.
func (s *Snapshot) AppendBinary(b []byte) ([]byte, error) {
	e := codec.Enc{B: b}
	s.encodeHead(&e)
	EncodePackets(&e, s.Packets)
	e.U64(uint64(len(s.Queues)))
	for i := range s.Queues {
		q := &s.Queues[i]
		encodeQueueHead(&e, q.Node, len(q.Packets))
		for _, pi := range q.Packets {
			e.Num(pi)
		}
	}
	s.encodeTail(&e)
	return e.B, nil
}

// AppendBinary implements encoding.BinaryAppender for the engine itself: it
// appends exactly the bytes Snapshot().AppendBinary(b) would, with the
// scalars, Seen and the packet and queue layouts written by the same code,
// but reads the packets and queues in place instead of copying them into a
// Snapshot first. Into a b with room enough it allocates nothing (an
// injector's SnapshotState aside). It must not be called while a Step is in
// flight.
func (e *Engine) AppendBinary(b []byte) ([]byte, error) {
	var s Snapshot
	if err := e.captureScalars(&s); err != nil {
		return b, err
	}
	s.Seen = e.seenLog
	enc := codec.Enc{B: b}
	s.encodeHead(&enc)
	enc.U64(uint64(len(e.packets)))
	for _, p := range e.packets {
		EncodePacket(&enc, p)
	}
	active := e.q.Active()
	enc.U64(uint64(len(active)))
	for _, node := range active {
		pkts := e.q.At(int(node))
		encodeQueueHead(&enc, mesh.NodeID(node), len(pkts))
		for _, p := range pkts {
			enc.Num(int(p.pos))
		}
	}
	s.encodeTail(&enc)
	return enc.B, nil
}

// encodeQueueHead writes a queue's node and length; the packets' indexes
// into the packet list follow.
func encodeQueueHead(e *codec.Enc, node mesh.NodeID, n int) {
	e.I64(int64(node))
	e.U64(uint64(n))
}

// encodeHead writes every field before the packet list: version, the
// configuration guard, clock and watermarks, the livelock detector and the
// cumulative counters.
func (s *Snapshot) encodeHead(e *codec.Enc) {
	e.Num(s.Version)
	e.Num(s.MeshDim)
	e.Num(s.MeshSide)
	e.Bool(s.MeshWrap)
	e.Str(s.PolicyName)
	e.I64(s.Seed)
	e.Num(s.MaxSteps)
	e.Num(int(s.Validation))
	e.Bool(s.DetectLive)

	e.Num(s.Time)
	e.Num(s.LastArrival)
	e.Num(s.NextID)
	e.U64(s.SerialRNG)

	e.Bool(s.Livelocked)
	EncodeSeen(e, s.Seen)

	e.I64(s.TotalDeflections)
	e.I64(s.TotalHops)
	e.Num(s.MaxNodeLoad)
	e.I64(s.Reroutes)
	e.Num(s.Dropped)
	e.Num(s.Absorbed)
	e.Num(s.DroppedCrash)
	e.Num(s.DroppedUnreachable)
	e.Num(s.DroppedStranded)
	e.Num(s.DroppedInject)
}

// encodeTail writes every field after the queues: injector and fault state.
func (s *Snapshot) encodeTail(e *codec.Enc) {
	e.Bool(s.HasInjector)
	e.Bytes(s.InjectorState)

	e.Bool(s.HasFaults)
	e.Num(int(s.Fate))
	e.U64(s.OverlayDigest)
	e.Num(s.LinkFailures)
	e.Num(s.NodeFailures)
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. It refuses any
// schema version but this build's (the layout is the version's), trailing
// bytes, and every malformation codec.Dec detects; it keeps no reference to
// data.
func (s *Snapshot) UnmarshalBinary(data []byte) error {
	d := codec.Dec{B: data}
	*s = Snapshot{Version: d.Num()}
	if d.Err() == nil && s.Version != SnapshotVersion {
		return fmt.Errorf("sim: snapshot schema v%d, this build reads v%d", s.Version, SnapshotVersion)
	}
	s.MeshDim = d.Num()
	s.MeshSide = d.Num()
	s.MeshWrap = d.Bool()
	s.PolicyName = d.Str()
	s.Seed = d.I64()
	s.MaxSteps = d.Num()
	s.Validation = ValidationLevel(d.Num())
	s.DetectLive = d.Bool()

	s.Time = d.Num()
	s.LastArrival = d.Num()
	s.NextID = d.Num()
	s.SerialRNG = d.U64()

	s.Livelocked = d.Bool()
	s.Seen = DecodeSeen(&d)

	s.TotalDeflections = d.I64()
	s.TotalHops = d.I64()
	s.MaxNodeLoad = d.Num()
	s.Reroutes = d.I64()
	s.Dropped = d.Num()
	s.Absorbed = d.Num()
	s.DroppedCrash = d.Num()
	s.DroppedUnreachable = d.Num()
	s.DroppedStranded = d.Num()
	s.DroppedInject = d.Num()

	s.Packets = DecodePackets(&d, "packet")
	if n := d.Count("queue"); n > 0 {
		s.Queues = make([]QueueState, n)
		// The queues' index lists are cut from one array: a consistent
		// snapshot queues each packet at most once, so len(Packets) bounds
		// their total (an inconsistent one gets its own arrays, and Restore
		// refuses it).
		idx := make([]int, 0, len(s.Packets))
		for i := range s.Queues {
			q := &s.Queues[i]
			q.Node = mesh.NodeID(d.I32())
			k := d.Count("queued packet")
			if k == 0 {
				continue
			}
			if k > cap(idx)-len(idx) {
				idx = make([]int, 0, k)
			}
			end := len(idx) + k
			q.Packets = idx[len(idx):end:end]
			idx = idx[:end]
			for j := range q.Packets {
				q.Packets[j] = d.Num()
			}
		}
	}

	s.HasInjector = d.Bool()
	s.InjectorState = d.Bytes()

	s.HasFaults = d.Bool()
	s.Fate = PacketFate(d.Num())
	s.OverlayDigest = d.U64()
	s.LinkFailures = d.Num()
	s.NodeFailures = d.Num()
	if err := d.Done(); err != nil {
		return fmt.Errorf("sim: snapshot: %w", err)
	}
	return nil
}
