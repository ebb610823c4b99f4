package checkpoint_test

import (
	"bytes"
	"encoding"
	"encoding/hex"
	"errors"
	"runtime"
	"testing"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/codec"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
)

// legacyGobPrefix is how the payload of a 'B' (encoding/gob) checkpoint from
// an older build begins: a type descriptor for Snapshot. As a 'V' payload it
// must be refused like any other garbage.
const legacyGobPrefix = "fe020e7f03010108536e617073686f7401ff80000123010756657273696f6e01040001074d65736844696d0104000108"

// binaryValue is what checkpoint.Binary asks of a value.
type binaryValue interface {
	AppendBinary([]byte) ([]byte, error)
	encoding.BinaryUnmarshaler
}

// midRun steps a small real engine (small, so the fuzzer's minimizer stays
// quick on the seeds) a few steps and snapshots it. With arrivals the
// snapshot carries injector state; without, the livelock detector's Seen
// history — an injector switches the detector off, so no real snapshot has
// both.
func midRun(f *testing.F, arrivals string) *sim.Snapshot {
	e := parityCase{side: 4, k: 12, arrivals: arrivals, livelock: true}.build(f, true)
	stepN(f, e, 2)
	s, err := e.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	return s
}

// FuzzReadBinary feeds arbitrary payloads, under a valid envelope, to the
// binary decoder of each checkpoint value type. Invariants: no input panics;
// decoding allocates O(len(input)) — a corrupt count cannot balloon; every
// failure is ErrBadFile; and anything accepted re-encodes to exactly the
// input, so no two byte strings mean the same checkpoint.
func FuzzReadBinary(f *testing.F) {
	withState, withSeen := midRun(f, "poisson:rate=0.3,until=50"), midRun(f, "")
	if len(withState.InjectorState) == 0 || len(withSeen.Seen) == 0 {
		f.Fatalf("seed snapshots lack injector state (%d bytes) or Seen history (%d entries)",
			len(withState.InjectorState), len(withSeen.Seen))
	}
	part := &shard.ShardPart{Version: shard.CheckpointVersion, Index: 1, Time: 2, Packets: withSeen.Packets[:4]}
	manifest := &shard.Manifest{
		Version: shard.CheckpointVersion, MeshDim: 2, MeshSide: 4, PolicyName: "random", Seed: -3, Grid: "2x1",
		Time: 2, NextID: 12, Live: 8, Shards: 2, HasInjector: true, InjectorState: withState.InjectorState,
		InjRNG: 1 << 63, Seen: withSeen.Seen, Finalized: withSeen.Packets[4:8], StepDir: "step-0000000002",
	}
	for _, v := range []binaryValue{withState, withSeen, part, manifest} {
		b, err := v.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	gob, err := hex.DecodeString(legacyGobPrefix)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gob)
	// Counts of 2^63: as the Seen count of a snapshot and as a part's packet
	// count.
	var e codec.Enc
	e.Num(sim.SnapshotVersion)
	for i := 0; i < 14; i++ {
		e.Byte(0)
	}
	e.U64(1 << 63)
	f.Add(e.B)
	e = codec.Enc{}
	e.Num(shard.CheckpointVersion)
	e.Num(0)
	e.Num(0)
	e.U64(1 << 63)
	f.Add(e.B)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, payload []byte) {
		file := checkpoint.Envelope(checkpoint.Binary, payload)
		for _, v := range []binaryValue{&sim.Snapshot{}, &shard.ShardPart{}, &shard.Manifest{}} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := checkpoint.ReadValue(bytes.NewReader(file), v)
			runtime.ReadMemStats(&after)
			// The widest element is a 120-byte PacketState for >= 15 input
			// bytes; 64 KiB covers error strings and the runtime's own noise.
			if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+32*len(payload)); grew > limit {
				t.Fatalf("%T: decoding %d bytes allocated %d (limit %d)", v, len(payload), grew, limit)
			}
			if err != nil {
				if !errors.Is(err, checkpoint.ErrBadFile) {
					t.Fatalf("%T: untyped failure %v", v, err)
				}
				continue
			}
			again, err := v.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, payload) {
				t.Fatalf("%T accepted a non-canonical payload:\n  in  %x\n  out %x", v, payload, again)
			}
		}
	})
}
