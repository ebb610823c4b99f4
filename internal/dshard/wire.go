package dshard

import (
	"errors"
	"fmt"

	"hotpotato/internal/codec"
	"hotpotato/internal/mesh"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
)

// Message types. Requests flow coordinator→worker, responses worker→
// coordinator; heartbeats and errors are spontaneous worker→coordinator.
const (
	mtHello     byte = 1  // worker → coordinator: handshake
	mtAssign    byte = 2  // coordinator → worker: problem + owned shards
	mtLoad      byte = 3  // coordinator → worker: (re)load shard state
	mtLoaded    byte = 4  // worker → coordinator: load acknowledged
	mtRoute     byte = 5  // coordinator → worker: route step t
	mtEgress    byte = 6  // worker → coordinator: cross-shard buckets of t
	mtApply     byte = 7  // coordinator → worker: apply step t with ingress
	mtApplied   byte = 8  // worker → coordinator: counters, finalized, hash words
	mtCkpt      byte = 9  // coordinator → worker: capture checkpoint parts
	mtParts     byte = 10 // worker → coordinator: checkpoint parts
	mtShutdown  byte = 11 // coordinator → worker: clean exit
	mtHeartbeat byte = 12 // worker → coordinator: liveness beacon
	mtError     byte = 13 // worker → coordinator: step failed
)

// protoVersion is the handshake protocol number carried inside HELLO
// (distinct from the frame-layer version byte).
const protoVersion = 1

// ErrBadMessage reports a structurally valid frame whose payload does not
// decode as its message type — like ErrFrameCorrupt, it is loud and typed,
// and the coordinator treats it as a worker failure.
var ErrBadMessage = errors.New("dshard: malformed message")

// ----- shared sub-records ------------------------------------------------
//
// Payloads are varint streams built on internal/codec (append-only writer,
// bounds-checked first-error-sticks reader); packets use sim.PacketState's
// own field codec and checkpoint parts shard.ShardPart's — the same bytes an
// HPCK checkpoint holds.

// done closes a message decode, typing any failure as ErrBadMessage.
func done(d *codec.Dec) error {
	if err := d.Done(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return nil
}

// encodeMove serializes one halo move: the packet's pre-move state plus the
// transfer record. The receiver materializes a fresh packet from it — the
// sender's object never travels, so applying the move on the receiver
// reproduces exactly the in-process mutation.
func encodeMove(e *codec.Enc, mv *sim.Move) {
	ps := sim.CapturePacket(mv.Packet)
	ps.Encode(e)
	e.I64(int64(mv.From))
	e.I64(int64(mv.To))
	e.I64(int64(mv.Dir))
	e.Num(mv.GoodCount)
	var flags byte
	if mv.Advanced {
		flags |= 1
	}
	if mv.WasRestricted {
		flags |= 2
	}
	if mv.WasTypeA {
		flags |= 4
	}
	if mv.ArrivedNow {
		flags |= 8
	}
	e.Byte(flags)
}

func decodeMove(d *codec.Dec, mv *sim.Move) {
	var ps sim.PacketState
	ps.Decode(d)
	mv.From = mesh.NodeID(d.I32())
	mv.To = mesh.NodeID(d.I32())
	mv.Dir = mesh.Dir(d.I8())
	mv.GoodCount = d.Num()
	flags := d.Byte()
	if d.Err() == nil {
		mv.Advanced = flags&1 != 0
		mv.WasRestricted = flags&2 != 0
		mv.WasTypeA = flags&4 != 0
		mv.ArrivedNow = flags&8 != 0
		mv.Packet = ps.Packet()
	}
}

func encodeBuckets(e *codec.Enc, bs []shard.Bucket) {
	e.U64(uint64(len(bs)))
	for i := range bs {
		e.Num(bs[i].From)
		e.Num(bs[i].To)
		e.U64(uint64(len(bs[i].Moves)))
		for j := range bs[i].Moves {
			encodeMove(e, &bs[i].Moves[j])
		}
	}
}

func decodeBuckets(d *codec.Dec) []shard.Bucket {
	n := d.Count("bucket")
	if n == 0 {
		return nil
	}
	bs := make([]shard.Bucket, n)
	for i := range bs {
		bs[i].From = d.Num()
		bs[i].To = d.Num()
		k := d.Count("move")
		if k == 0 {
			continue
		}
		bs[i].Moves = make([]sim.Move, k)
		for j := range bs[i].Moves {
			decodeMove(d, &bs[i].Moves[j])
		}
	}
	return bs
}

// ----- messages ----------------------------------------------------------

// msgHello is the worker's handshake: protocol number, shared-secret token,
// and the slot it wants (-1 = any; a respawned worker reclaims its slot).
type msgHello struct {
	Proto uint64
	Token string
	Slot  int
}

func (m *msgHello) encode() []byte {
	var e codec.Enc
	e.U64(m.Proto)
	e.Str(m.Token)
	e.Num(m.Slot)
	return e.B
}

func decodeHello(p []byte) (msgHello, error) {
	d := codec.Dec{B: p}
	m := msgHello{Proto: d.U64(), Token: d.Str(), Slot: d.Num()}
	return m, done(&d)
}

// msgAssign binds a worker to its share of the problem. Epoch is the
// coordinator's recovery generation: every request carries it, every
// response echoes it, and the coordinator bumps it on each rollback so
// frames from before a recovery are recognizably stale.
type msgAssign struct {
	Epoch           uint64
	Side            int
	Wrap            bool
	GridP           int
	GridQ           int
	Policy          string
	Seed            int64
	Validation      int
	HashWords       bool // ship per-step hash words in APPLIED (DetectLivelock)
	Owned           []int
	HeartbeatMillis int64
}

func (m *msgAssign) encode() []byte {
	var e codec.Enc
	e.U64(m.Epoch)
	e.Num(m.Side)
	e.Bool(m.Wrap)
	e.Num(m.GridP)
	e.Num(m.GridQ)
	e.Str(m.Policy)
	e.I64(m.Seed)
	e.Num(m.Validation)
	e.Bool(m.HashWords)
	e.U64(uint64(len(m.Owned)))
	for _, idx := range m.Owned {
		e.Num(idx)
	}
	e.I64(m.HeartbeatMillis)
	return e.B
}

func decodeAssign(p []byte) (msgAssign, error) {
	d := codec.Dec{B: p}
	m := msgAssign{
		Epoch: d.U64(), Side: d.Num(), Wrap: d.Bool(),
		GridP: d.Num(), GridQ: d.Num(), Policy: d.Str(),
		Seed: d.I64(), Validation: d.Num(), HashWords: d.Bool(),
	}
	n := d.Count("owned shard")
	for i := 0; i < n; i++ {
		m.Owned = append(m.Owned, d.Num())
	}
	m.HeartbeatMillis = d.I64()
	return m, done(&d)
}

// shardLoad is one shard's worth of state in a LOAD: live packets in the
// exact enqueue order of a checkpoint part re-partitioned to this shard.
type shardLoad struct {
	Index   int
	Packets []sim.PacketState
}

// msgLoad (re)initializes a worker's shards to the state of step T — the
// initial distribution and every post-failure rollback use the same path.
type msgLoad struct {
	Epoch  uint64
	T      int
	Shards []shardLoad
}

func (m *msgLoad) encode() []byte {
	var e codec.Enc
	e.U64(m.Epoch)
	e.Num(m.T)
	e.U64(uint64(len(m.Shards)))
	for i := range m.Shards {
		e.Num(m.Shards[i].Index)
		sim.EncodePackets(&e, m.Shards[i].Packets)
	}
	return e.B
}

func decodeLoad(p []byte) (msgLoad, error) {
	d := codec.Dec{B: p}
	m := msgLoad{Epoch: d.U64(), T: d.Num()}
	n := d.Count("shard load")
	for i := 0; i < n; i++ {
		m.Shards = append(m.Shards, shardLoad{Index: d.Num(), Packets: sim.DecodePackets(&d, "packet")})
	}
	return m, done(&d)
}

// msgStep is the shared shape of the bare (epoch, t) messages: LOADED,
// ROUTE and CKPT.
type msgStep struct {
	Epoch uint64
	T     int
}

func (m *msgStep) encode() []byte {
	var e codec.Enc
	e.U64(m.Epoch)
	e.Num(m.T)
	return e.B
}

func decodeStep(p []byte) (msgStep, error) {
	d := codec.Dec{B: p}
	m := msgStep{Epoch: d.U64(), T: d.Num()}
	return m, done(&d)
}

// msgEgress is a worker's route-phase result: every cross-shard bucket its
// shards produced for step T. msgApply reuses the shape for the return
// trip: the buckets addressed to the worker's shards.
type msgEgress struct {
	Epoch   uint64
	T       int
	Buckets []shard.Bucket
}

func (m *msgEgress) encode() []byte {
	var e codec.Enc
	e.U64(m.Epoch)
	e.Num(m.T)
	encodeBuckets(&e, m.Buckets)
	return e.B
}

func decodeEgress(p []byte) (msgEgress, error) {
	d := codec.Dec{B: p}
	m := msgEgress{Epoch: d.U64(), T: d.Num(), Buckets: decodeBuckets(&d)}
	return m, done(&d)
}

// hashBlock carries one shard's configuration-hash word pairs for the
// step's global fold (shard.Node.HashWords).
type hashBlock struct {
	Shard int
	Words []uint64
}

// msgApplied is a worker's apply-phase result: counter deltas, packets that
// arrived this step, and (when livelock detection is on) the hash words of
// its live packets.
type msgApplied struct {
	Epoch       uint64
	T           int
	Hops        int64
	Deflections int64
	Arrivals    int
	LastArrival int
	Reroutes    int64
	MaxNodeLoad int
	Finalized   []sim.PacketState
	Blocks      []hashBlock
}

func (m *msgApplied) encode() []byte {
	var e codec.Enc
	e.U64(m.Epoch)
	e.Num(m.T)
	e.I64(m.Hops)
	e.I64(m.Deflections)
	e.Num(m.Arrivals)
	e.Num(m.LastArrival)
	e.I64(m.Reroutes)
	e.Num(m.MaxNodeLoad)
	sim.EncodePackets(&e, m.Finalized)
	e.U64(uint64(len(m.Blocks)))
	for i := range m.Blocks {
		e.Num(m.Blocks[i].Shard)
		e.U64(uint64(len(m.Blocks[i].Words)))
		for _, w := range m.Blocks[i].Words {
			e.U64(w)
		}
	}
	return e.B
}

func decodeApplied(p []byte) (msgApplied, error) {
	d := codec.Dec{B: p}
	m := msgApplied{
		Epoch: d.U64(), T: d.Num(),
		Hops: d.I64(), Deflections: d.I64(),
		Arrivals: d.Num(), LastArrival: d.Num(),
		Reroutes: d.I64(), MaxNodeLoad: d.Num(),
		Finalized: sim.DecodePackets(&d, "finalized packet"),
	}
	n := d.Count("hash block")
	for i := 0; i < n; i++ {
		b := hashBlock{Shard: d.Num()}
		k := d.Count("hash word")
		if k%2 != 0 {
			d.Fail("odd hash word count")
		}
		for j := 0; j < k && d.Err() == nil; j++ {
			b.Words = append(b.Words, d.U64())
		}
		m.Blocks = append(m.Blocks, b)
	}
	return m, done(&d)
}

// msgParts is a worker's checkpoint contribution: one ShardPart per owned
// shard, all captured at the same barrier.
type msgParts struct {
	Epoch uint64
	T     int
	Parts []shard.ShardPart
}

func (m *msgParts) encode() []byte {
	var e codec.Enc
	e.U64(m.Epoch)
	e.Num(m.T)
	e.U64(uint64(len(m.Parts)))
	for i := range m.Parts {
		m.Parts[i].Encode(&e)
	}
	return e.B
}

func decodeParts(p []byte) (msgParts, error) {
	d := codec.Dec{B: p}
	m := msgParts{Epoch: d.U64(), T: d.Num()}
	n := d.Count("part")
	for i := 0; i < n; i++ {
		var part shard.ShardPart
		part.Decode(&d)
		m.Parts = append(m.Parts, part)
	}
	return m, done(&d)
}

// msgError reports a failed request. Fatal errors (unknown policy,
// validation failure — deterministic, would repeat on replay) abort the
// run; non-fatal ones (policy panic, desync) trigger checkpoint rollback.
// After sending a non-fatal error the worker refuses ROUTE/APPLY until the
// next LOAD.
type msgError struct {
	Epoch uint64
	Fatal bool
	Msg   string
}

func (m *msgError) encode() []byte {
	var e codec.Enc
	e.U64(m.Epoch)
	e.Bool(m.Fatal)
	e.Str(m.Msg)
	return e.B
}

func decodeError(p []byte) (msgError, error) {
	d := codec.Dec{B: p}
	m := msgError{Epoch: d.U64(), Fatal: d.Bool(), Msg: d.Str()}
	return m, done(&d)
}
