package dshard

import (
	"errors"
	"fmt"
	"slices"

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
	mtStep      byte = 5  // coordinator → worker: apply step t-1 with ingress, route step t
	mtStepped   byte = 6  // worker → coordinator: counters, finalized, hash words of t-1; cross-shard buckets of t
	mtCkpt      byte = 9  // coordinator → worker: capture checkpoint parts
	mtParts     byte = 10 // worker → coordinator: checkpoint parts
	mtShutdown  byte = 11 // coordinator → worker: clean exit
	mtHeartbeat byte = 12 // worker → coordinator: liveness beacon
	mtError     byte = 13 // worker → coordinator: step failed
)

// protoVersion is the handshake protocol number carried inside HELLO
// (distinct from the frame-layer version byte). Version 2 fused the
// ROUTE→EGRESS / APPLY→APPLIED pair of version 1 into STEP→STEPPED.
const protoVersion = 2

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

// message is what every msg* type is to the framer: something that appends
// its payload to an encoder.
type message interface{ appendTo(e *codec.Enc) }

// frameOf builds m's sealed frame in buf's storage (nil allocates): room for
// the header first, so the payload is encoded in place behind it and the
// frame is built where it is sent from, never copied.
func frameOf(buf []byte, typ byte, m message) []byte {
	e := codec.Enc{B: append(buf[:0], make([]byte, frameHeaderLen)...)}
	if m != nil {
		m.appendTo(&e)
	}
	return sealFrame(e.B, 0, typ)
}

// done closes a message decode, typing any failure as ErrBadMessage.
func done(d *codec.Dec) error {
	if err := d.Done(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	return nil
}

// encodeMove serializes one halo move: the packet's pre-move state plus the
// transfer record. The receiver fills a packet of its own from it — the
// sender's object never travels, so applying the move on the receiver
// reproduces exactly the in-process mutation.
func encodeMove(e *codec.Enc, mv *sim.Move) {
	sim.EncodePacket(e, mv.Packet)
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

// decodeMove decodes one halo move into mv, filling a packet taken from
// newPacket (shard.Node.Recycled on a worker).
func decodeMove(d *codec.Dec, mv *sim.Move, newPacket func() *sim.Packet) {
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
		mv.Packet = newPacket()
		ps.Fill(mv.Packet)
	}
}

// encodeMoves serializes one bucket's body: the counted moves of one
// (sender, receiver) shard pair.
func encodeMoves(e *codec.Enc, moves []sim.Move) {
	e.U64(uint64(len(moves)))
	for i := range moves {
		encodeMove(e, &moves[i])
	}
}

// decodeMoves decodes a bucket body into dst's storage via decodeMove.
func decodeMoves(body []byte, dst []sim.Move, newPacket func() *sim.Packet) ([]sim.Move, error) {
	d := codec.Dec{B: body}
	n := d.Count("move")
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		decodeMove(&d, &dst[i], newPacket)
	}
	return dst, done(&d)
}

// rawBucket is one halo transfer on the wire: the shard pair in the clear
// and the moves as a length-prefixed body (encodeMoves). The coordinator
// re-keys buckets by receiver from the pair alone and relays the body as the
// bytes it received; only workers look inside.
type rawBucket struct {
	From, To int
	Body     []byte
}

func encodeBuckets(e *codec.Enc, bs []rawBucket) {
	e.U64(uint64(len(bs)))
	for i := range bs {
		e.Num(bs[i].From)
		e.Num(bs[i].To)
		e.Bytes(bs[i].Body)
	}
}

// decodeBuckets reads buckets into dst's storage; the bodies alias the
// payload.
func decodeBuckets(d *codec.Dec, dst []rawBucket) []rawBucket {
	n := d.Count("bucket")
	dst = slices.Grow(dst[:0], n)[:n]
	for i := range dst {
		dst[i] = rawBucket{From: d.Num(), To: d.Num(), Body: d.View()}
	}
	return dst
}

// ----- messages ----------------------------------------------------------

// msgHello is the worker's handshake: protocol number, shared-secret token,
// and the slot it wants (-1 = any; a respawned worker reclaims its slot).
type msgHello struct {
	Proto uint64
	Token string
	Slot  int
}

func (m *msgHello) appendTo(e *codec.Enc) {
	e.U64(m.Proto)
	e.Str(m.Token)
	e.Num(m.Slot)
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
	HashWords       bool // ship per-step hash words in STEPPED (DetectLivelock)
	Owned           []int
	HeartbeatMillis int64
}

func (m *msgAssign) appendTo(e *codec.Enc) {
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
// exact enqueue order of a checkpoint part re-partitioned to this shard, as
// a counted packet list. Body, when set, is that list already encoded
// (sim.EncodePackets' bytes, which admit writes straight from the packets)
// and Packets is not consulted.
type shardLoad struct {
	Index   int
	Packets []sim.PacketState
	Body    []byte
}

// msgLoad (re)initializes a worker's shards to the state of step T — the
// initial distribution and every post-failure rollback use the same path.
type msgLoad struct {
	Epoch  uint64
	T      int
	Shards []shardLoad
}

func (m *msgLoad) appendTo(e *codec.Enc) {
	e.U64(m.Epoch)
	e.Num(m.T)
	e.U64(uint64(len(m.Shards)))
	for i := range m.Shards {
		e.Num(m.Shards[i].Index)
		if m.Shards[i].Body != nil {
			e.B = append(e.B, m.Shards[i].Body...)
		} else {
			sim.EncodePackets(e, m.Shards[i].Packets)
		}
	}
}

// decodeLoadHead reads a LOAD's epoch, time and shard count. The shards
// follow in d, each an index and a body that loadShards decodes straight
// into the worker's packet slabs.
func decodeLoadHead(d *codec.Dec) (msgAt, int) {
	m := msgAt{Epoch: d.U64(), T: d.Num()}
	return m, d.Count("shard load")
}

// loadShards loads the LOAD shards d holds into node, each body straight
// into its shard's slab (shard.Node.LoadBody), then empties the hosted
// shards the LOAD omits, so a rollback never leaves stale packets behind. A
// payload that does not decode is ErrBadMessage; one that decodes but fails
// the node's checks is the node's error.
func loadShards(node *shard.Node, d *codec.Dec, shards int) error {
	loaded := make([]int, 0, shards)
	for i := 0; i < shards; i++ {
		idx := d.Num()
		if err := node.LoadBody(idx, d); err != nil {
			if d.Err() != nil {
				return fmt.Errorf("%w: %v", ErrBadMessage, d.Err())
			}
			return err
		}
		loaded = append(loaded, idx)
	}
	if err := done(d); err != nil {
		return err
	}
	for _, idx := range node.Owned() {
		if !slices.Contains(loaded, idx) {
			if err := node.LoadShard(idx, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// msgAt is the shared shape of the bare (epoch, t) messages: LOADED, CKPT
// and SHUTDOWN.
type msgAt struct {
	Epoch uint64
	T     int
}

func (m *msgAt) appendTo(e *codec.Enc) {
	e.U64(m.Epoch)
	e.Num(m.T)
}

func decodeAt(p []byte) (msgAt, error) {
	d := codec.Dec{B: p}
	m := msgAt{Epoch: d.U64(), T: d.Num()}
	return m, done(&d)
}

// msgStep is the one request of a step barrier, named by the time T the
// worker stands at once it is served: with Apply, step T-1 is applied from
// the Ingress buckets addressed to the worker's shards (absent in the first
// request after a LOAD, which has staged nothing to apply); with Route, step
// T is then routed (absent when T is the step budget).
type msgStep struct {
	Epoch   uint64
	T       int
	Apply   bool
	Route   bool
	Ingress []rawBucket
}

func (m *msgStep) appendTo(e *codec.Enc) {
	e.U64(m.Epoch)
	e.Num(m.T)
	e.Bool(m.Apply)
	e.Bool(m.Route)
	if m.Apply {
		encodeBuckets(e, m.Ingress)
	}
}

// decodeStep decodes into m, reusing its bucket storage; the bodies alias p.
func decodeStep(p []byte, m *msgStep) error {
	d := codec.Dec{B: p}
	m.Epoch, m.T = d.U64(), d.Num()
	m.Apply, m.Route = d.Bool(), d.Bool()
	m.Ingress = m.Ingress[:0]
	if m.Apply {
		m.Ingress = decodeBuckets(&d, m.Ingress)
	}
	return done(&d)
}

// hashBlock carries one shard's configuration-hash word pairs for the
// step's global fold (shard.Node.HashWords), 8 bytes little-endian each:
// the coordinator folds them where they lie.
type hashBlock struct {
	Shard int
	Words []byte
}

// msgStepped answers a STEP. The applied half reports step T-1: counter
// deltas, the packets that arrived (Arrivals of them, sim.PacketState
// encodings back to back — the coordinator keeps the bytes and decodes them
// when a manifest is due) and, when livelock detection is on, the hash words
// of the live packets. The routed half is every cross-shard bucket the
// worker's shards produced for step T.
type msgStepped struct {
	Epoch uint64
	T     int

	Applied     bool
	Hops        int64
	Deflections int64
	Arrivals    int
	LastArrival int
	Reroutes    int64
	MaxNodeLoad int
	Finalized   []byte
	Blocks      []hashBlock

	Routed bool
	Egress []rawBucket
}

func (m *msgStepped) appendTo(e *codec.Enc) {
	e.U64(m.Epoch)
	e.Num(m.T)
	e.Bool(m.Applied)
	e.Bool(m.Routed)
	if m.Applied {
		e.I64(m.Hops)
		e.I64(m.Deflections)
		e.Num(m.Arrivals)
		e.Num(m.LastArrival)
		e.I64(m.Reroutes)
		e.Num(m.MaxNodeLoad)
		e.Bytes(m.Finalized)
		e.U64(uint64(len(m.Blocks)))
		for i := range m.Blocks {
			e.Num(m.Blocks[i].Shard)
			e.Bytes(m.Blocks[i].Words)
		}
	}
	if m.Routed {
		encodeBuckets(e, m.Egress)
	}
}

// decodeStepped decodes into m, reusing its block and bucket storage; every
// byte slice in m aliases p.
func decodeStepped(p []byte, m *msgStepped) error {
	d := codec.Dec{B: p}
	*m = msgStepped{Epoch: d.U64(), T: d.Num(), Applied: d.Bool(), Routed: d.Bool(), Blocks: m.Blocks[:0], Egress: m.Egress[:0]}
	if m.Applied {
		m.Hops, m.Deflections = d.I64(), d.I64()
		m.Arrivals, m.LastArrival = d.Num(), d.Num()
		m.Reroutes, m.MaxNodeLoad = d.I64(), d.Num()
		m.Finalized = d.View()
		n := d.Count("hash block")
		for i := 0; i < n; i++ {
			b := hashBlock{Shard: d.Num(), Words: d.View()}
			if len(b.Words)%16 != 0 {
				d.Fail("hash words are not whole pairs")
			}
			m.Blocks = append(m.Blocks, b)
		}
	}
	if m.Routed {
		m.Egress = decodeBuckets(&d, m.Egress)
	}
	return done(&d)
}

// msgParts is a worker's checkpoint contribution: one ShardPart per owned
// shard, all captured at the same barrier.
type msgParts struct {
	Epoch uint64
	T     int
	Parts []shard.ShardPart
}

func (m *msgParts) appendTo(e *codec.Enc) {
	e.U64(m.Epoch)
	e.Num(m.T)
	e.U64(uint64(len(m.Parts)))
	for i := range m.Parts {
		m.Parts[i].Encode(e)
	}
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
// After sending a non-fatal error the worker refuses STEP and CKPT until the
// next LOAD.
type msgError struct {
	Epoch uint64
	Fatal bool
	Msg   string
}

func (m *msgError) appendTo(e *codec.Enc) {
	e.U64(m.Epoch)
	e.Bool(m.Fatal)
	e.Str(m.Msg)
}

func decodeError(p []byte) (msgError, error) {
	d := codec.Dec{B: p}
	m := msgError{Epoch: d.U64(), Fatal: d.Bool(), Msg: d.Str()}
	return m, done(&d)
}
