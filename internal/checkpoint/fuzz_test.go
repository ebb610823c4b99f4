package checkpoint_test

import (
	"bytes"
	"encoding"
	"encoding/hex"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/codec"
	"hotpotato/internal/mesh"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
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

// seedArrivals is the arrival process of the seed snapshot with injector
// state; engineFor installs it wherever a header says an injector ran.
const seedArrivals = "poisson:rate=0.3,until=50"

// namedPolicy is a deterministic policy of any name: a restore checks the
// policy's name and never routes.
type namedPolicy string

func (p namedPolicy) Name() string                               { return string(p) }
func (namedPolicy) Deterministic() bool                          { return true }
func (namedPolicy) Route(*sim.NodeState, []mesh.Dir, *rand.Rand) {}

// engineFor builds a fresh engine configured as the snapshot's header says
// — mesh, policy name, options, the seed arrival process if the header has
// an injector — so that a restore gets past the configuration guard to the
// packet and queue checks. No fault model is installed. ok is false for a
// mesh this test does not build: more than 3 dimensions or 4 096 nodes.
func engineFor(t *testing.T, s *sim.Snapshot) (*sim.Engine, bool) {
	if s.MeshDim < 1 || s.MeshDim > 3 || s.MeshSide < 2 || s.MeshSide > 4096 {
		return nil, false
	}
	nodes := 1
	for i := 0; i < s.MeshDim; i++ {
		if nodes *= s.MeshSide; nodes > 4096 {
			return nil, false
		}
	}
	var m *mesh.Mesh
	if s.MeshWrap {
		m = mesh.MustNewTorus(s.MeshDim, s.MeshSide)
	} else {
		m = mesh.MustNew(s.MeshDim, s.MeshSide)
	}
	e, err := sim.New(m, namedPolicy(s.PolicyName), nil, sim.Options{Seed: s.Seed, MaxSteps: s.MaxSteps, Validation: s.Validation, DetectLivelock: s.DetectLive})
	if err != nil {
		t.Fatal(err)
	}
	if s.HasInjector {
		as, err := spec.ParseArrivalSpec(seedArrivals)
		if err != nil {
			t.Fatal(err)
		}
		src, err := spec.BuildArrivals(as, m)
		if err != nil {
			t.Fatal(err)
		}
		e.SetInjector(src)
	}
	return e, true
}

// checkDirectDecode holds sim.Engine.RestoreBinary, the resume path that
// decodes a binary payload straight into an engine, to Snapshot decoding
// plus Restore. A payload UnmarshalBinary refuses, RestoreBinary refuses as
// a malformation (never ErrBadSnapshot), leaving the engine fresh. For any
// other, two engines built to match its header must get the same verdict
// from Restore and RestoreBinary, with the same error, and on acceptance
// the same state hash, progress and packets; a refused engine stays fresh.
func checkDirectDecode(t *testing.T, payload []byte) {
	fresh := func(e *sim.Engine) bool {
		return e.Progress() == (sim.Progress{}) && len(e.Packets()) == 0
	}
	var snap sim.Snapshot
	if snap.UnmarshalBinary(payload) != nil {
		e, _ := engineFor(t, &sim.Snapshot{MeshDim: 2, MeshSide: 4})
		if err := e.RestoreBinary(payload); err == nil || errors.Is(err, sim.ErrBadSnapshot) || !fresh(e) {
			t.Fatalf("a payload Snapshot refuses: RestoreBinary err %v, engine fresh %v", err, fresh(e))
		}
		return
	}
	viaSnap, ok := engineFor(t, &snap)
	if !ok {
		return
	}
	direct, _ := engineFor(t, &snap)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	errDirect := direct.RestoreBinary(payload)
	runtime.ReadMemStats(&after)
	if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+32*len(payload)); grew > limit {
		t.Fatalf("RestoreBinary of %d bytes allocated %d (limit %d)", len(payload), grew, limit)
	}
	errSnap := viaSnap.Restore(&snap)
	if (errSnap == nil) != (errDirect == nil) || errSnap != nil && errSnap.Error() != errDirect.Error() {
		t.Fatalf("verdicts differ: Restore %v, RestoreBinary %v", errSnap, errDirect)
	}
	if errDirect != nil {
		if errors.Is(errDirect, sim.ErrBadSnapshot) && !fresh(direct) {
			t.Fatalf("RestoreBinary refused (%v) but left the engine at %+v", errDirect, direct.Progress())
		}
		return
	}
	if direct.StateHash() != viaSnap.StateHash() || direct.Progress() != viaSnap.Progress() {
		t.Fatalf("RestoreBinary: hash %016x progress %+v; Restore: hash %016x progress %+v",
			direct.StateHash(), direct.Progress(), viaSnap.StateHash(), viaSnap.Progress())
	}
	for i, p := range viaSnap.Packets() {
		if got, want := sim.CapturePacket(direct.Packets()[i]), sim.CapturePacket(p); got != want {
			t.Fatalf("packet %d: RestoreBinary %+v, Restore %+v", i, got, want)
		}
	}
}

// FuzzReadBinary feeds arbitrary payloads, under a valid envelope, to the
// binary decoder of each checkpoint value type. Invariants: no input panics;
// decoding allocates O(len(input)) — a corrupt count cannot balloon; every
// failure is ErrBadFile; and anything accepted re-encodes to exactly the
// input, so no two byte strings mean the same checkpoint. Every payload also
// goes through checkDirectDecode.
func FuzzReadBinary(f *testing.F) {
	withState, withSeen := midRun(f, seedArrivals), midRun(f, "")
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
	// Two snapshots Restore refuses: one packet ID twice, and a source off
	// the mesh.
	dup, offMesh := *withSeen, *withSeen
	dup.Packets = slices.Clone(withSeen.Packets)
	dup.Packets[1].ID = dup.Packets[0].ID
	offMesh.Packets = slices.Clone(withSeen.Packets)
	offMesh.Packets[0].Src = mesh.NodeID(withSeen.MeshSide * withSeen.MeshSide)
	for _, v := range []binaryValue{withState, withSeen, part, manifest, &dup, &offMesh} {
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
		checkDirectDecode(t, payload)
	})
}
