package shard

import (
	"fmt"

	"hotpotato/internal/codec"
	"hotpotato/internal/sim"
)

// Binary forms of the sharded checkpoint types, built on the same codec
// primitives and sim.PacketState field codec as sim.Snapshot. Fields are
// written in declaration order; a layout change is a CheckpointVersion bump.

// Encode appends the part: Version, Index, Time, then its counted packets.
// This is also a part's layout inside a dshard PARTS message.
func (p *ShardPart) Encode(e *codec.Enc) {
	e.Num(p.Version)
	e.Num(p.Index)
	e.Num(p.Time)
	sim.EncodePackets(e, p.Packets)
}

// Decode reads what Encode wrote.
func (p *ShardPart) Decode(d *codec.Dec) {
	p.Version = d.Num()
	p.Index = d.Num()
	p.Time = d.Num()
	p.Packets = sim.DecodePackets(d, "part packet")
}

// AppendBinary implements encoding.BinaryAppender.
func (p *ShardPart) AppendBinary(b []byte) ([]byte, error) {
	e := codec.Enc{B: b}
	p.Encode(&e)
	return e.B, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; it keeps no
// reference to data.
func (p *ShardPart) UnmarshalBinary(data []byte) error {
	d := codec.Dec{B: data}
	p.Decode(&d)
	return finish(&d, p.Version, "part")
}

// finish closes a top-level decode: the binary layout belongs to one schema
// version, so any other is refused rather than guessed at.
func finish(d *codec.Dec, version int, what string) error {
	if err := d.Done(); err != nil {
		return fmt.Errorf("shard: %s: %w", what, err)
	}
	if version != CheckpointVersion {
		return fmt.Errorf("shard: %s schema v%d, this build reads v%d", what, version, CheckpointVersion)
	}
	return nil
}

// AppendBinary implements encoding.BinaryAppender.
func (m *Manifest) AppendBinary(b []byte) ([]byte, error) {
	e := codec.Enc{B: b}
	e.Num(m.Version)
	e.Num(m.MeshDim)
	e.Num(m.MeshSide)
	e.Bool(m.MeshWrap)
	e.Str(m.PolicyName)
	e.I64(m.Seed)
	e.Num(m.MaxSteps)
	e.Num(int(m.Validation))
	e.Bool(m.DetectLive)
	e.Str(m.Grid)

	e.Num(m.Time)
	e.Num(m.LastArrival)
	e.Num(m.NextID)
	e.Num(m.Live)
	e.Bool(m.Livelocked)
	e.Num(m.Shards)

	e.I64(m.TotalDeflections)
	e.I64(m.TotalHops)
	e.Num(m.MaxNodeLoad)
	e.I64(m.Reroutes)
	e.Num(m.Recoveries)

	e.Bool(m.HasInjector)
	e.Bytes(m.InjectorState)
	e.U64(m.InjRNG)

	sim.EncodeSeen(&e, m.Seen)
	sim.EncodePackets(&e, m.Finalized)
	e.Str(m.StepDir)
	return e.B, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; it keeps no
// reference to data.
func (m *Manifest) UnmarshalBinary(data []byte) error {
	d := codec.Dec{B: data}
	*m = Manifest{
		Version:    d.Num(),
		MeshDim:    d.Num(),
		MeshSide:   d.Num(),
		MeshWrap:   d.Bool(),
		PolicyName: d.Str(),
		Seed:       d.I64(),
		MaxSteps:   d.Num(),
		Validation: sim.ValidationLevel(d.Num()),
		DetectLive: d.Bool(),
		Grid:       d.Str(),

		Time:        d.Num(),
		LastArrival: d.Num(),
		NextID:      d.Num(),
		Live:        d.Num(),
		Livelocked:  d.Bool(),
		Shards:      d.Num(),

		TotalDeflections: d.I64(),
		TotalHops:        d.I64(),
		MaxNodeLoad:      d.Num(),
		Reroutes:         d.I64(),
		Recoveries:       d.Num(),

		HasInjector:   d.Bool(),
		InjectorState: d.Bytes(),
		InjRNG:        d.U64(),

		Seen:      sim.DecodeSeen(&d),
		Finalized: sim.DecodePackets(&d, "finalized packet"),
		StepDir:   d.Str(),
	}
	return finish(&d, m.Version, "manifest")
}
