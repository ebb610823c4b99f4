package dshard

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"hotpotato/internal/codec"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
)

func testPackets() []sim.PacketState {
	return []sim.PacketState{
		{ID: 1, Src: 3, Dst: 60, Node: 12, EnteredVia: 2, InjectedAt: 0, ArrivedAt: -1, DroppedAt: -1, Hops: 4, Deflections: 1, AdvancedPrev: true, GoodPrev: 2},
		{ID: 9, Src: 0, Dst: 7, Node: 7, EnteredVia: -1, ArrivedAt: 11, DroppedAt: -1, RestrictedPrev: true},
	}
}

// TestWireRoundTrip pushes every message type through encode → decode →
// re-encode and requires byte-identical output: the codec is canonical, so
// equality of bytes is equality of meaning.
func TestWireRoundTrip(t *testing.T) {
	mv := func(id int) sim.Move {
		ps := testPackets()[0]
		ps.ID = id
		return sim.Move{Packet: ps.Packet(), From: 12, To: 13, Dir: 1, GoodCount: 2, Advanced: true, ArrivedNow: id%2 == 0}
	}
	cases := []struct {
		name string
		enc  func() []byte
		dec  func(p []byte) (any, []byte, error)
	}{
		{"hello", (&msgHello{Proto: 1, Token: "secret", Slot: -1}).encode, func(p []byte) (any, []byte, error) {
			m, err := decodeHello(p)
			return m, m.encode(), err
		}},
		{"assign", (&msgAssign{Epoch: 3, Side: 8, Wrap: true, GridP: 2, GridQ: 2, Policy: "random", Seed: -7, Validation: 1, HashWords: true, Owned: []int{1, 3}, HeartbeatMillis: 200}).encode, func(p []byte) (any, []byte, error) {
			m, err := decodeAssign(p)
			return m, m.encode(), err
		}},
		{"load", (&msgLoad{Epoch: 2, T: 40, Shards: []shardLoad{{Index: 0, Packets: testPackets()}, {Index: 2}}}).encode, func(p []byte) (any, []byte, error) {
			m, err := decodeLoad(p)
			return m, m.encode(), err
		}},
		{"step", (&msgStep{Epoch: 9, T: 123}).encode, func(p []byte) (any, []byte, error) {
			m, err := decodeStep(p)
			return m, m.encode(), err
		}},
		{"egress", (&msgEgress{Epoch: 1, T: 5, Buckets: []shard.Bucket{
			{From: 0, To: 1, Moves: []sim.Move{mv(1), mv(2)}},
			{From: 3, To: 0, Moves: []sim.Move{mv(4)}},
		}}).encode, func(p []byte) (any, []byte, error) {
			m, err := decodeEgress(p)
			return m, m.encode(), err
		}},
		{"applied", (&msgApplied{Epoch: 4, T: 17, Hops: 100, Deflections: 3, Arrivals: 2, LastArrival: 17, Reroutes: 5, MaxNodeLoad: 4,
			Finalized: testPackets(), Blocks: []hashBlock{{Shard: 0, Words: []uint64{1, 2, 3, 4}}, {Shard: 1}},
		}).encode, func(p []byte) (any, []byte, error) {
			m, err := decodeApplied(p)
			return m, m.encode(), err
		}},
		{"parts", (&msgParts{Epoch: 2, T: 8, Parts: []shard.ShardPart{
			{Version: 1, Index: 0, Time: 8, Packets: testPackets()},
			{Version: 1, Index: 1, Time: 8},
		}}).encode, func(p []byte) (any, []byte, error) {
			m, err := decodeParts(p)
			return m, m.encode(), err
		}},
		{"error", (&msgError{Epoch: 6, Fatal: true, Msg: "policy panicked"}).encode, func(p []byte) (any, []byte, error) {
			m, err := decodeError(p)
			return m, m.encode(), err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire := tc.enc()
			_, rewire, err := tc.dec(wire)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !bytes.Equal(wire, rewire) {
				t.Fatalf("re-encode differs:\n  first  %x\n  second %x", wire, rewire)
			}
		})
	}
}

// TestWireMoveFidelity checks the field-level contract of the halo move
// record: the receiver-side materialized packet and transfer flags must
// reproduce the sender's exactly.
func TestWireMoveFidelity(t *testing.T) {
	ps := testPackets()[0]
	in := sim.Move{Packet: ps.Packet(), From: 12, To: 13, Dir: 3, GoodCount: 2, Advanced: true, WasRestricted: true, WasTypeA: true, ArrivedNow: true}
	var e codec.Enc
	encodeMove(&e, &in)
	d := codec.Dec{B: e.B}
	var out sim.Move
	decodeMove(&d, &out)
	if err := done(&d); err != nil {
		t.Fatal(err)
	}
	if out.From != in.From || out.To != in.To || out.Dir != in.Dir || out.GoodCount != in.GoodCount ||
		!out.Advanced || !out.WasRestricted || !out.WasTypeA || !out.ArrivedNow {
		t.Fatalf("transfer fields diverged: %+v vs %+v", out, in)
	}
	if got := sim.CapturePacket(out.Packet); !reflect.DeepEqual(got, ps) {
		t.Fatalf("packet state diverged:\n  got  %+v\n  want %+v", got, ps)
	}
}

// TestWireTruncationsAreLoud truncates each message at every byte offset:
// every prefix must decode with ErrBadMessage, never panic or succeed.
func TestWireTruncationsAreLoud(t *testing.T) {
	full := (&msgApplied{Epoch: 4, T: 17, Hops: 1, Finalized: testPackets(), Blocks: []hashBlock{{Shard: 0, Words: []uint64{1, 2}}}}).encode()
	for n := 0; n < len(full); n++ {
		if _, err := decodeApplied(full[:n]); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("prefix of %d bytes: err %v, want ErrBadMessage", n, err)
		}
	}
	if _, err := decodeApplied(append(append([]byte(nil), full...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestWireGoldenBytes pins the HPWF frames of one EGRESS, one LOAD and one
// PARTS message to the bytes the pre-codec-move build emitted (protoVersion
// 1): sharing the packet codec with HPCK checkpoints must not change the
// wire.
func TestWireGoldenBytes(t *testing.T) {
	if protoVersion != 1 {
		t.Fatalf("protoVersion = %d; the golden frames below are version 1", protoVersion)
	}
	mv := func(id int) sim.Move {
		ps := testPackets()[0]
		ps.ID = id
		return sim.Move{Packet: ps.Packet(), From: 12, To: 13, Dir: 1, GoodCount: 2, Advanced: true, WasTypeA: id == 4, ArrivedNow: id%2 == 0}
	}
	cases := []struct {
		name    string
		typ     byte
		payload []byte
		want    string
	}{
		{"egress", mtEgress, (&msgEgress{Epoch: 1, T: 5, Buckets: []shard.Bucket{
			{From: 0, To: 1, Moves: []sim.Move{mv(1), mv(2)}},
			{From: 3, To: 0, Moves: []sim.Move{mv(4)}},
		}}).encode(), "48505746010642000000097b0212010a020002020206781804000001010008020104181a0204010406781804000001010008020104181a0204090600010806781804000001010008020104181a02040d"},
		{"load", mtLoad, (&msgLoad{Epoch: 2, T: 40, Shards: []shardLoad{{Index: 0, Packets: testPackets()}, {Index: 2}}}).encode(),
			"485057460103230000005e621eba0250020002020678180400000101000802010412000e0e010000160100000002000400"},
		{"parts", mtParts, (&msgParts{Epoch: 2, T: 8, Parts: []shard.ShardPart{
			{Version: 1, Index: 0, Time: 8, Packets: testPackets()},
			{Version: 1, Index: 1, Time: 8},
		}}).encode(), "48505746010a27000000f1919f3a02100202001002020678180400000101000802010412000e0e0100001601000000020002021000"},
	}
	for _, tc := range cases {
		if got := hex.EncodeToString(AppendFrame(nil, tc.typ, tc.payload)); got != tc.want {
			t.Errorf("%s frame changed:\n  got  %s\n  want %s", tc.name, got, tc.want)
		}
	}
}
