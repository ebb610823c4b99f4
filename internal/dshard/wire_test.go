package dshard

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"hotpotato/internal/codec"
	"hotpotato/internal/mesh"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
	"hotpotato/internal/workload"
)

func testPackets() []sim.PacketState {
	return []sim.PacketState{
		{ID: 1, Src: 3, Dst: 60, Node: 12, EnteredVia: 2, InjectedAt: 0, ArrivedAt: -1, DroppedAt: -1, Hops: 4, Deflections: 1, AdvancedPrev: true, GoodPrev: 2},
		{ID: 9, Src: 0, Dst: 7, Node: 7, EnteredVia: -1, ArrivedAt: 11, DroppedAt: -1, RestrictedPrev: true},
	}
}

// payloadOf is a message's payload bytes.
func payloadOf(m message) []byte { return frameOf(nil, 0, m)[frameHeaderLen:] }

// freshPacket is decodeMoves' packet source for callers without a node.
func freshPacket() *sim.Packet { return new(sim.Packet) }

// testMove is one halo move of the fixture packet under another id.
func testMove(id int) sim.Move {
	ps := testPackets()[0]
	ps.ID = id
	return sim.Move{Packet: ps.Packet(), From: 12, To: 13, Dir: 1, GoodCount: 2, Advanced: true, WasTypeA: id == 4, ArrivedNow: id%2 == 0}
}

// testBucket encodes moves the way a worker does.
func testBucket(from, to int, moves ...sim.Move) rawBucket {
	var e codec.Enc
	encodeMoves(&e, moves)
	return rawBucket{From: from, To: to, Body: e.B}
}

func testStep() *msgStep {
	return &msgStep{Epoch: 1, T: 6, Apply: true, Route: true, Ingress: []rawBucket{
		testBucket(0, 1, testMove(1), testMove(2)),
		testBucket(3, 0, testMove(4)),
	}}
}

func testStepped() *msgStepped {
	var fin codec.Enc
	for _, ps := range testPackets() {
		ps.Encode(&fin)
	}
	words := make([]byte, 32)
	for i := range words {
		words[i] = byte(i)
	}
	return &msgStepped{Epoch: 4, T: 18, Applied: true, Hops: 100, Deflections: 3, Arrivals: 2, LastArrival: 17, Reroutes: 5, MaxNodeLoad: 4,
		Finalized: fin.B, Blocks: []hashBlock{{Shard: 0, Words: words}, {Shard: 1}},
		Routed: true, Egress: []rawBucket{testBucket(1, 0, testMove(7)), testBucket(1, 2)},
	}
}

// decodeLoadPackets decodes a LOAD payload into packet states. Workers
// never do: loadShards decodes each body straight into a packet slab.
func decodeLoadPackets(p []byte) (msgLoad, error) {
	d := codec.Dec{B: p}
	at, n := decodeLoadHead(&d)
	m := msgLoad{Epoch: at.Epoch, T: at.T}
	for i := 0; i < n; i++ {
		m.Shards = append(m.Shards, shardLoad{Index: d.Num(), Packets: sim.DecodePackets(&d, "packet")})
	}
	return m, done(&d)
}

// TestWireRoundTrip pushes every message type through encode → decode →
// re-encode and requires byte-identical output: the codec is canonical, so
// equality of bytes is equality of meaning.
func TestWireRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		msg  message
		dec  func(p []byte) (message, error)
	}{
		{"hello", &msgHello{Proto: protoVersion, Token: "secret", Slot: -1}, func(p []byte) (message, error) {
			m, err := decodeHello(p)
			return &m, err
		}},
		{"assign", &msgAssign{Epoch: 3, Side: 8, Wrap: true, GridP: 2, GridQ: 2, Policy: "random", Seed: -7, Validation: 1, HashWords: true, Owned: []int{1, 3}, HeartbeatMillis: 200}, func(p []byte) (message, error) {
			m, err := decodeAssign(p)
			return &m, err
		}},
		{"load", &msgLoad{Epoch: 2, T: 40, Shards: []shardLoad{{Index: 0, Packets: testPackets()}, {Index: 2}}}, func(p []byte) (message, error) {
			m, err := decodeLoadPackets(p)
			return &m, err
		}},
		{"at", &msgAt{Epoch: 9, T: 123}, func(p []byte) (message, error) {
			m, err := decodeAt(p)
			return &m, err
		}},
		{"step", testStep(), func(p []byte) (message, error) {
			var m msgStep
			return &m, decodeStep(p, &m)
		}},
		{"step-prime", &msgStep{Epoch: 1, T: 5, Route: true}, func(p []byte) (message, error) {
			var m msgStep
			return &m, decodeStep(p, &m)
		}},
		{"stepped", testStepped(), func(p []byte) (message, error) {
			var m msgStepped
			return &m, decodeStepped(p, &m)
		}},
		{"stepped-last", &msgStepped{Epoch: 4, T: 300, Applied: true, Hops: 1}, func(p []byte) (message, error) {
			var m msgStepped
			return &m, decodeStepped(p, &m)
		}},
		{"parts", &msgParts{Epoch: 2, T: 8, Parts: []shard.ShardPart{
			{Version: 1, Index: 0, Time: 8, Packets: testPackets()},
			{Version: 1, Index: 1, Time: 8},
		}}, func(p []byte) (message, error) {
			m, err := decodeParts(p)
			return &m, err
		}},
		{"error", &msgError{Epoch: 6, Fatal: true, Msg: "policy panicked"}, func(p []byte) (message, error) {
			m, err := decodeError(p)
			return &m, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wire := payloadOf(tc.msg)
			m, err := tc.dec(wire)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if rewire := payloadOf(m); !bytes.Equal(wire, rewire) {
				t.Fatalf("re-encode differs:\n  first  %x\n  second %x", wire, rewire)
			}
		})
	}
}

// TestWireBucketBodies checks the half of the bucket codec the coordinator
// never runs: a relayed body decodes on the receiving worker into the moves
// the sender encoded, and a body that lies about its count is refused.
func TestWireBucketBodies(t *testing.T) {
	b := testBucket(0, 1, testMove(1), testMove(2), testMove(4))
	moves, err := decodeMoves(b.Body, nil, freshPacket)
	if err != nil || len(moves) != 3 {
		t.Fatalf("decodeMoves: %d moves, err %v", len(moves), err)
	}
	for i, id := range []int{1, 2, 4} {
		want := testMove(id)
		got := moves[i]
		if got.Packet.ID != id || *got.Packet != *want.Packet {
			t.Errorf("move %d: packet %+v, want %+v", i, got.Packet, want.Packet)
		}
		got.Packet, want.Packet = nil, nil
		if got != want {
			t.Errorf("move %d: %+v, want %+v", i, got, want)
		}
	}
	if again, err := decodeMoves(b.Body, moves, freshPacket); err != nil || &again[0] != &moves[0] {
		t.Errorf("decodeMoves did not reuse its destination (err %v)", err)
	}
	for n := 0; n < len(b.Body); n++ {
		if _, err := decodeMoves(b.Body[:n], nil, freshPacket); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("body cut to %d bytes: err %v, want ErrBadMessage", n, err)
		}
	}
	if _, err := decodeMoves(append(append([]byte(nil), b.Body...), 0), nil, freshPacket); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("trailing byte in a body: err %v, want ErrBadMessage", err)
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
	decodeMove(&d, &out, freshPacket)
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

// TestWireTruncationsAreLoud truncates the two step messages at every byte
// offset: every prefix must decode with ErrBadMessage, never panic or
// succeed — and neither may a frame whose bucket or block lengths lie.
func TestWireTruncationsAreLoud(t *testing.T) {
	decStep := func(p []byte) error { return decodeStep(p, new(msgStep)) }
	decStepped := func(p []byte) error { return decodeStepped(p, new(msgStepped)) }
	for _, tc := range []struct {
		name string
		full []byte
		dec  func([]byte) error
	}{
		{"step", payloadOf(testStep()), decStep},
		{"stepped", payloadOf(testStepped()), decStepped},
	} {
		for n := 0; n < len(tc.full); n++ {
			if err := tc.dec(tc.full[:n]); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("%s: prefix of %d bytes: err %v, want ErrBadMessage", tc.name, n, err)
			}
		}
		if err := tc.dec(append(append([]byte(nil), tc.full...), 0)); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("%s: trailing byte: err %v, want ErrBadMessage", tc.name, err)
		}
	}

	// A bucket's byte length is the one thing the coordinator trusts to cut
	// a body out of a frame: one that overruns the payload, or stops short
	// and leaves bytes behind, must fail the whole message.
	one := &msgStep{Epoch: 1, T: 2, Apply: true, Ingress: []rawBucket{testBucket(0, 1, testMove(1))}}
	wire := payloadOf(one)
	lenAt := len(wire) - len(one.Ingress[0].Body) - 1
	if int(wire[lenAt]) != len(one.Ingress[0].Body) {
		t.Fatalf("fixture: byte %d is not the body length", lenAt)
	}
	for _, delta := range []int{-1, +1} {
		lie := append([]byte(nil), wire...)
		lie[lenAt] = byte(int(lie[lenAt]) + delta)
		if err := decStep(lie); !errors.Is(err, ErrBadMessage) {
			t.Errorf("body length off by %+d: err %v, want ErrBadMessage", delta, err)
		}
	}
	// Hash words come in pairs.
	odd := testStepped()
	odd.Blocks[0].Words = odd.Blocks[0].Words[:24]
	if err := decStepped(payloadOf(odd)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("odd hash word count: err %v, want ErrBadMessage", err)
	}
}

// TestWireGoldenBytes pins the HPWF frames of protoVersion 2. LOAD and PARTS
// are the bytes every build since the pre-codec-move one has emitted; STEP
// and STEPPED were recorded once, when they replaced version 1's
// ROUTE/EGRESS/APPLY/APPLIED.
func TestWireGoldenBytes(t *testing.T) {
	if protoVersion != 2 {
		t.Fatalf("protoVersion = %d; the golden frames below are version 2", protoVersion)
	}
	cases := []struct {
		name string
		typ  byte
		msg  message
		want string
	}{
		{"step", mtStep, testStep(),
			"4850574601054600000035d925b2010c010102000227020206781804000001010008020104181a0204010406781804000001010008020104181a020409060014010806781804000001010008020104181a02040d"},
		{"stepped", mtStepped, testStepped(),
			"4850574601066900000086ac590204240101c8010604220a081c020678180400000101000802010412000e0e01000016010000000200020020000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f020002020014010e06781804000001010008020104181a02040102040100"},
		{"load", mtLoad, &msgLoad{Epoch: 2, T: 40, Shards: []shardLoad{{Index: 0, Packets: testPackets()}, {Index: 2}}},
			"485057460103230000005e621eba0250020002020678180400000101000802010412000e0e010000160100000002000400"},
		{"parts", mtParts, &msgParts{Epoch: 2, T: 8, Parts: []shard.ShardPart{
			{Version: 1, Index: 0, Time: 8, Packets: testPackets()},
			{Version: 1, Index: 1, Time: 8},
		}}, "48505746010a27000000f1919f3a02100202001002020678180400000101000802010412000e0e0100001601000000020002021000"},
	}
	for _, tc := range cases {
		if got := hex.EncodeToString(frameOf(nil, tc.typ, tc.msg)); got != tc.want {
			t.Errorf("%s frame changed:\n  got  %s\n  want %s", tc.name, got, tc.want)
		}
	}
}

// TestLoadBodiesMatchCapturedStates: the t=0 LOAD bodies admit encodes
// straight from the packets frame byte for byte like a LOAD built from the
// captured states of shard.New's queues — the same packets in the same
// order, through the same per-packet encoder — and a packet absorbed at t=0
// is finalized, not loaded.
func TestLoadBodiesMatchCapturedStates(t *testing.T) {
	m := mesh.MustNewTorus(2, 12)
	pkts, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	pkts = append(pkts, sim.NewPacket(len(pkts), 5, 5))
	grid := shard.Grid{P: 2, Q: 2}
	pol, err := spec.NewPolicy("fixed")
	if err != nil {
		t.Fatal(err)
	}
	clones := make([]*sim.Packet, len(pkts))
	for i, p := range pkts {
		ps := sim.CapturePacket(p)
		clones[i] = ps.Packet()
	}
	ref, err := shard.New(m, pol, clones, shard.Options{Grid: grid, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Spec{Side: 12, Wrap: true, Policy: "fixed", Grid: grid, Seed: 1}, pkts, Options{Workers: 2, Policies: spec.NewPolicy})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.loads) != len(want.Parts) {
		t.Fatalf("%d LOAD bodies for %d shards", len(c.loads), len(want.Parts))
	}
	for i, part := range want.Parts {
		fromStates := frameOf(nil, mtLoad, &msgLoad{Epoch: 1, Shards: []shardLoad{{Index: i, Packets: part.Packets}}})
		fromPackets := frameOf(nil, mtLoad, &msgLoad{Epoch: 1, Shards: []shardLoad{{Index: i, Body: c.loads[i]}}})
		if !bytes.Equal(fromStates, fromPackets) {
			t.Errorf("shard %d: LOAD from packets differs from LOAD from captured states", i)
		}
	}
	if got := c.lastCK.Manifest.Finalized; !reflect.DeepEqual(got, want.Manifest.Finalized) {
		t.Errorf("finalized at t=0: %+v, want %+v", got, want.Manifest.Finalized)
	}
}

// TestHaloCarriesDisplacement steps two workers' nodes of a 2x1 grid, on a
// mesh and on a torus, exchanging every halo bucket as bytes: encodeMoves
// on the sender, decodeMoves into the receiver's recycled packets — which
// carry a stale displacement from an earlier life — then ApplyArrived.
// Every decoded packet still live after the step must carry the kernel mask
// GoodMask gives at its new node, and the run must make the single engine's
// hops.
func TestHaloCarriesDisplacement(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		m := mesh.MustNew(2, 10)
		if wrap {
			m = mesh.MustNewTorus(2, 10)
		}
		pkts, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		pol, err := spec.NewPolicy("random")
		if err != nil {
			t.Fatal(err)
		}
		g := shard.Grid{P: 2, Q: 1}
		pt, err := shard.NewPartition(m, g)
		if err != nil {
			t.Fatal(err)
		}
		var nodes [2]*shard.Node
		var parts [2][]sim.PacketState
		for i := range nodes {
			if nodes[i], err = shard.NewNode(m, pol, g, []int{i}, 9, sim.ValidateOff); err != nil {
				t.Fatal(err)
			}
		}
		ref, err := sim.New(m, pol, pkts, sim.Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < m.Size(); id++ {
			for _, p := range ref.PacketsAt(mesh.NodeID(id)) {
				parts[pt.Owner(p.Node)] = append(parts[pt.Owner(p.Node)], sim.CapturePacket(p))
			}
		}
		for i, n := range nodes {
			if err := n.LoadShard(i, parts[i]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := ref.Run()
		if err != nil {
			t.Fatal(err)
		}
		var hops int64
		halo := 0
		for step := 0; nodes[0].Live()+nodes[1].Live() > 0; step++ {
			var ingress [2][]shard.Bucket
			for _, n := range nodes {
				out, err := n.Route(step)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range out {
					var e codec.Enc
					encodeMoves(&e, b.Moves)
					moves, err := decodeMoves(e.B, nil, nodes[b.To].Recycled)
					if err != nil {
						t.Fatal(err)
					}
					ingress[b.To] = append(ingress[b.To], shard.Bucket{From: b.From, To: b.To, Moves: moves})
				}
			}
			for i, n := range nodes {
				rep, _, err := n.ApplyArrived(step, ingress[i])
				if err != nil {
					t.Fatal(err)
				}
				hops += rep.Hops
				for _, b := range ingress[i] {
					for _, mv := range b.Moves {
						if p := mv.Packet; !p.Arrived() {
							halo++
							d := p.Disp()
							if got, want := m.Tables().DispGood(p.Node, &d), m.Tables().GoodMask(p.Node, p.Dst); got != want {
								t.Fatalf("%v step %d: halo packet %d at %d for %d: kernel mask %b, GoodMask %b", m, step, p.ID, p.Node, p.Dst, got, want)
							}
						}
					}
				}
				n.Release()
			}
		}
		if hops != res.TotalHops || halo == 0 {
			t.Fatalf("%v: nodes made %d hops (%d live halo arrivals), the single engine %d", m, hops, halo, res.TotalHops)
		}
	}
}
