package dshard

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"hotpotato/internal/codec"
	"hotpotato/internal/mesh"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
)

// FuzzHaloFrame fuzzes the whole inbound path a coordinator or worker
// exposes to the network: the frame reader and every message decoder. The
// invariants are (1) no input panics or over-allocates, (2) a frame that
// parses re-encodes to exactly the bytes consumed, and (3) every decoder
// failure is the typed ErrBadMessage/ErrFrameCorrupt — hostile bytes are
// loud, never silently misparsed.
func FuzzHaloFrame(f *testing.F) {
	f.Add(frameOf(nil, mtHello, &msgHello{Proto: protoVersion, Token: "t", Slot: -1}))
	f.Add(frameOf(nil, mtAssign, &msgAssign{Epoch: 1, Side: 8, GridP: 2, GridQ: 2, Policy: "random", Owned: []int{0, 1}, HeartbeatMillis: 200}))
	ps := sim.PacketState{ID: 1, Src: 0, Dst: 9, Node: 4, EnteredVia: -1, ArrivedAt: -1, DroppedAt: -1}
	f.Add(frameOf(nil, mtStep, testStep()))
	f.Add(frameOf(nil, mtStepped, testStepped()))
	f.Add(frameOf(nil, mtLoad, &msgLoad{Epoch: 1, Shards: []shardLoad{{Index: 0, Packets: []sim.PacketState{ps}}}}))
	f.Add(frameOf(nil, mtParts, &msgParts{Epoch: 1, T: 5, Parts: []shard.ShardPart{{Version: 1, Packets: []sim.PacketState{ps}}}}))
	f.Add([]byte("HPWF garbage"))
	f.Add(bytes.Repeat([]byte{0xFF}, 40))
	// Bare payloads, for the decoders below: a STEP whose bucket length
	// overruns the payload, and one whose body holds fewer moves than it
	// counts.
	step := payloadOf(&msgStep{Epoch: 1, T: 2, Apply: true, Ingress: []rawBucket{testBucket(0, 1, testMove(1))}})
	f.Add(step)
	f.Add(append(step[:len(step):len(step)], step[5:]...))
	f.Add(testBucket(0, 1, testMove(1), testMove(2)).Body)

	pol, err := spec.NewPolicy("fixed")
	if err != nil {
		f.Fatal(err)
	}
	node, err := shard.NewNode(mesh.MustNewTorus(2, 4), pol, shard.Grid{P: 1, Q: 1}, []int{0}, 1, sim.ValidateOff)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data), 1<<20)
		if err == nil {
			consumed := frameHeaderLen + len(payload)
			if !bytes.Equal(AppendFrame(nil, typ, payload), data[:consumed]) {
				t.Fatalf("re-encoded frame differs from input prefix")
			}
		} else if !errors.Is(err, ErrFrameCorrupt) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("frame error is neither corruption nor truncation: %v", err)
		}
		// Feed the raw data to every decoder regardless of framing: the
		// decoders must survive arbitrary payloads on their own, and fail
		// only with the typed error.
		typed := func(err error) {
			if err != nil && !errors.Is(err, ErrBadMessage) {
				t.Fatalf("decoder error is not ErrBadMessage: %v", err)
			}
		}
		_, err = decodeHello(data)
		typed(err)
		_, err = decodeAssign(data)
		typed(err)
		_, err = decodeLoadPackets(data)
		typed(err)
		// The worker's LOAD path proper: bodies decoded straight into a
		// node's slab. A payload that does not decode fails as
		// ErrBadMessage; one that does may still fail the load's checks.
		d := codec.Dec{B: data}
		if _, n := decodeLoadHead(&d); d.Err() == nil {
			if err := loadShards(node, &d, n); d.Err() != nil && !errors.Is(err, ErrBadMessage) {
				t.Fatalf("undecodable LOAD body is not ErrBadMessage: %v", err)
			}
		}
		_, err = decodeAt(data)
		typed(err)
		var s msgStep
		if err := decodeStep(data, &s); err == nil {
			// What the coordinator relays is what it read: the buckets
			// re-encode to the payload they were cut from.
			if !bytes.Equal(payloadOf(&s), data) {
				t.Fatalf("accepted STEP does not re-encode to its input")
			}
			for i := range s.Ingress {
				_, err := decodeMoves(s.Ingress[i].Body, nil, freshPacket)
				typed(err)
			}
		} else {
			typed(err)
		}
		typed(decodeStepped(data, new(msgStepped)))
		_, err = decodeMoves(data, nil, freshPacket)
		typed(err)
		_, err = decodeParts(data)
		typed(err)
		_, err = decodeError(data)
		typed(err)
	})
}
