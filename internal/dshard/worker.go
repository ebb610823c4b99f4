package dshard

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"hotpotato/internal/codec"
	"hotpotato/internal/mesh"
	"hotpotato/internal/run"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
)

// WorkerOptions configures one worker endpoint.
type WorkerOptions struct {
	// Token must match the coordinator's; HELLO carries it.
	Token string
	// Slot is the barrier slot to request: a respawned worker reclaims its
	// old slot, -1 lets the coordinator pick.
	Slot int
	// Policies resolves the policy name from ASSIGN; typically
	// spec.NewPolicy. Required.
	Policies func(name string) (sim.Policy, error)
	// MaxFrame caps inbound frame payloads; <= 0 means DefaultMaxFrame.
	MaxFrame int
	// Faults, when non-nil, injects transport faults into every outbound
	// frame (test and chaos rigs only).
	Faults *FaultPlan
	// Logf, when non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
	// TestHookPreRoute, when non-nil, runs once before each step is routed — the
	// chaos tests hang or crash a worker here at a chosen step.
	TestHookPreRoute func(t int)
}

func (o *WorkerOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// defaultHeartbeat is the heartbeat interval when ASSIGN does not set one.
const defaultHeartbeat = 200 * time.Millisecond

// worker is the per-connection protocol state machine.
type worker struct {
	opts WorkerOptions
	conn net.Conn
	in   frameReader
	out  io.Writer // conn, possibly behind a faultWriter
	wmu  sync.Mutex

	epoch   uint64
	node    *shard.Node
	hashing bool
	curT    int
	routedT int
	// needLoad latches after any step failure: the worker's state may be
	// torn mid-phase, so STEP and CKPT are refused until the coordinator
	// reloads it from a checkpoint.
	needLoad bool

	// stepped is the worker's idempotency device: the sealed STEPPED frame
	// of the last STEP served, valid while steppedOK. A re-asked STEP of the
	// same (epoch, t) resends these exact bytes instead of re-executing —
	// re-routing would double-count Reroutes/MaxNodeLoad and re-applying
	// would corrupt state, so the cache is what makes the coordinator's
	// retries safe. One request per step means one cache.
	stepped   []byte
	steppedOK bool
	req       msgStep
	resp      msgStepped

	// Scratch reused across steps: decoded ingress (it only grows, so every
	// bucket keeps its Moves storage), and the byte runs resp points into
	// (arrived packets, hash words, bucket bodies), one after another in runs.
	ingress []shard.Bucket
	words   []uint64
	runs    codec.Enc

	hbOnce sync.Once
	hbStop chan struct{}
}

// ServeWorker speaks the worker side of the protocol on conn until the
// coordinator sends SHUTDOWN (nil return), the context is cancelled, or the
// connection fails. The caller owns conn's lifetime on error paths.
func ServeWorker(ctx context.Context, conn net.Conn, opts WorkerOptions) error {
	if opts.Policies == nil {
		return errors.New("dshard: WorkerOptions.Policies is required")
	}
	w := &worker{
		opts:    opts,
		conn:    conn,
		in:      frameReader{r: bufio.NewReaderSize(conn, 64<<10), max: opts.MaxFrame},
		out:     newFaultWriter(conn, opts.Faults),
		routedT: -1,
		hbStop:  make(chan struct{}),
	}
	defer close(w.hbStop)

	// Unblock the read loop when the context dies.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.SetDeadline(time.Now())
			conn.Close()
		case <-watchDone:
		}
	}()

	if err := w.send(mtHello, &msgHello{Proto: protoVersion, Token: opts.Token, Slot: opts.Slot}); err != nil {
		return fmt.Errorf("dshard: hello: %w", err)
	}
	for {
		typ, payload, err := w.in.next()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("dshard: worker read: %w", err)
		}
		done, err := w.dispatch(typ, payload)
		if done || err != nil {
			return err
		}
	}
}

func (w *worker) send(typ byte, m message) error { return w.write(frameOf(nil, typ, m)) }

// write puts one sealed frame on the wire with one Write call; the mutex
// interleaves whole frames with the heartbeat goroutine's.
func (w *worker) write(frame []byte) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	_, err := w.out.Write(frame)
	return err
}

// sendError reports a failed request. Non-fatal errors additionally latch
// needLoad: the worker's shard state may be torn, so only a LOAD can
// re-enter the barrier.
func (w *worker) sendError(fatal bool, err error) error {
	if !fatal {
		w.needLoad = true
	}
	w.opts.logf("worker slot %d: step error (fatal=%v): %v", w.opts.Slot, fatal, err)
	return w.send(mtError, &msgError{Epoch: w.epoch, Fatal: fatal, Msg: err.Error()})
}

func (w *worker) dispatch(typ byte, payload []byte) (done bool, err error) {
	switch typ {
	case mtAssign:
		return false, w.onAssign(payload)
	case mtLoad:
		return false, w.onLoad(payload)
	case mtStep:
		return false, w.onStep(payload)
	case mtCkpt:
		return false, w.onCkpt(payload)
	case mtShutdown:
		return true, nil
	default:
		// Unknown but CRC-valid frame: a newer coordinator speaking an
		// extension this build does not know. Ignoring it is safer than
		// dying — the coordinator will time out and recover if it mattered.
		w.opts.logf("worker slot %d: ignoring unknown frame type %d", w.opts.Slot, typ)
		return false, nil
	}
}

func (w *worker) onAssign(payload []byte) error {
	a, err := decodeAssign(payload)
	if err != nil {
		return err
	}
	var m *mesh.Mesh
	if a.Wrap {
		m, err = mesh.NewTorus(2, a.Side)
	} else {
		m, err = mesh.New(2, a.Side)
	}
	if err != nil {
		return w.sendError(true, fmt.Errorf("assign: %w", err))
	}
	policy, err := w.opts.Policies(a.Policy)
	if err != nil {
		return w.sendError(true, fmt.Errorf("assign: %w", err))
	}
	node, err := shard.NewNode(m, policy, shard.Grid{P: a.GridP, Q: a.GridQ}, a.Owned, a.Seed, sim.ValidationLevel(a.Validation))
	if err != nil {
		return w.sendError(true, fmt.Errorf("assign: %w", err))
	}
	w.node = node
	w.hashing = a.HashWords
	w.epoch = a.Epoch
	w.needLoad = true
	w.routedT = -1
	w.steppedOK = false

	hb := time.Duration(a.HeartbeatMillis) * time.Millisecond
	if hb <= 0 {
		hb = defaultHeartbeat
	}
	w.hbOnce.Do(func() { go w.heartbeat(hb) })
	return nil
}

// heartbeat sends spontaneous liveness beacons. It runs concurrently with
// the dispatch loop (the write mutex interleaves the frames), so the
// coordinator can distinguish a dead or frozen process — beacons stop —
// from one that is merely computing a long phase, where they keep flowing.
func (w *worker) heartbeat(every time.Duration) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	beat := frameOf(nil, mtHeartbeat, nil)
	for {
		select {
		case <-w.hbStop:
			return
		case <-tick.C:
			if w.write(beat) != nil {
				return
			}
		}
	}
}

func (w *worker) onLoad(payload []byte) error {
	d := codec.Dec{B: payload}
	l, shards := decodeLoadHead(&d)
	if err := d.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if l.Epoch < w.epoch {
		return nil // stale request from before a recovery; drop it
	}
	if w.node == nil {
		return w.sendError(true, errors.New("load before assign"))
	}
	w.epoch = l.Epoch
	if err := loadShards(w.node, &d, shards); err != nil {
		if errors.Is(err, ErrBadMessage) {
			return err
		}
		return w.sendError(true, fmt.Errorf("load: %w", err))
	}
	w.curT = l.T
	w.routedT = -1
	w.needLoad = false
	w.steppedOK = false
	return w.send(mtLoaded, &msgAt{Epoch: w.epoch, T: l.T})
}

// stepGate applies the shared request admission rules for STEP and CKPT:
// stale epochs are dropped, future epochs mean a missed LOAD, and a latched
// failure refuses everything until reload. It returns (proceed, err).
func (w *worker) stepGate(epoch uint64, what string) (bool, error) {
	if epoch < w.epoch {
		return false, nil
	}
	if epoch > w.epoch {
		return false, w.sendError(false, fmt.Errorf("%s: epoch %d ahead of worker epoch %d (missed load)", what, epoch, w.epoch))
	}
	if w.node == nil || w.needLoad {
		return false, w.sendError(false, fmt.Errorf("%s: worker needs reload", what))
	}
	return true, nil
}

// onStep serves one barrier: apply step T-1 from the ingress buckets, then
// route step T. The route is speculative — the coordinator learns from this
// very reply whether the run goes on — and that is sound because routing
// only fills the shards' staging lists and the router's MaxNodeLoad/Reroutes
// partials: the queues a CKPT captures are untouched, the next route or LOAD
// overwrites the staging, and the partials are reported by the apply that
// consumes the route or dropped by the LOAD that discards it.
func (w *worker) onStep(payload []byte) error {
	s := &w.req
	if err := decodeStep(payload, s); err != nil {
		return err
	}
	if w.steppedOK && s.Epoch == w.epoch {
		switch {
		case s.T == w.resp.T:
			return w.write(w.stepped)
		case s.T < w.resp.T:
			return nil // late duplicate of a barrier already left behind
		}
	}
	ok, err := w.stepGate(s.Epoch, "step")
	if !ok {
		return err
	}
	at := s.T
	if s.Apply {
		at--
	}
	if at != w.curT || (s.Apply && w.routedT != at) {
		return w.sendError(false, fmt.Errorf("step: request for barrier %d (apply=%v), worker at step %d (routed %d)", s.T, s.Apply, w.curT, w.routedT))
	}
	w.steppedOK = false
	w.runs.B = w.runs.B[:0]
	w.resp = msgStepped{Epoch: w.epoch, T: s.T, Applied: s.Apply, Routed: s.Route, Blocks: w.resp.Blocks[:0], Egress: w.resp.Egress[:0]}
	if s.Apply {
		if err := w.apply(at, s.Ingress); err != nil {
			return w.sendError(false, err)
		}
		w.curT, w.routedT = s.T, -1
	}
	if s.Route {
		if w.opts.TestHookPreRoute != nil {
			w.opts.TestHookPreRoute(s.T)
		}
		buckets, err := w.node.Route(s.T)
		if err != nil {
			return w.sendError(!errors.Is(err, sim.ErrPolicyPanic), err)
		}
		w.routedT = s.T
		for i := range buckets {
			off := len(w.runs.B)
			encodeMoves(&w.runs, buckets[i].Moves)
			w.resp.Egress = append(w.resp.Egress, rawBucket{From: buckets[i].From, To: buckets[i].To, Body: w.runs.B[off:]})
		}
	}
	w.stepped = frameOf(w.stepped, mtStepped, &w.resp)
	w.steppedOK = true
	return w.write(w.stepped)
}

// apply applies step t from the wire's ingress buckets and fills the
// applied half of w.resp. Ingress packets are the node's recycled ones: once
// the arrived packets are encoded, every packet the apply left unreferenced
// — those and the egress packets of the route it consumed — goes back to
// the node (Release).
func (w *worker) apply(t int, ingress []rawBucket) error {
	var err error
	for i := range ingress {
		if i == len(w.ingress) {
			w.ingress = append(w.ingress, shard.Bucket{})
		}
		b := &w.ingress[i]
		b.From, b.To = ingress[i].From, ingress[i].To
		if b.Moves, err = decodeMoves(ingress[i].Body, b.Moves, w.node.Recycled); err != nil {
			return err
		}
	}
	rep, arrived, err := w.node.ApplyArrived(t, w.ingress[:len(ingress)])
	if err != nil {
		return err
	}
	r := &w.resp
	r.Hops, r.Deflections = rep.Hops, rep.Deflections
	r.Arrivals, r.LastArrival = rep.Arrivals, rep.LastArrival
	r.Reroutes, r.MaxNodeLoad = rep.Reroutes, rep.MaxNodeLoad
	for _, p := range arrived {
		sim.EncodePacket(&w.runs, p)
	}
	r.Finalized = w.runs.B
	w.node.Release()
	if !w.hashing {
		return nil
	}
	for _, idx := range w.node.Owned() {
		if w.words, err = w.node.HashWords(idx, w.words[:0]); err != nil {
			return err
		}
		off := len(w.runs.B)
		for _, word := range w.words {
			w.runs.B = binary.LittleEndian.AppendUint64(w.runs.B, word)
		}
		r.Blocks = append(r.Blocks, hashBlock{Shard: idx, Words: w.runs.B[off:]})
	}
	return nil
}

func (w *worker) onCkpt(payload []byte) error {
	s, err := decodeAt(payload)
	if err != nil {
		return err
	}
	ok, err := w.stepGate(s.Epoch, "ckpt")
	if !ok {
		return err
	}
	if s.T != w.curT {
		return w.sendError(false, fmt.Errorf("ckpt: step %d, worker at step %d", s.T, w.curT))
	}
	resp := msgParts{Epoch: w.epoch, T: s.T}
	for _, idx := range w.node.Owned() {
		part, err := w.node.Part(idx, s.T)
		if err != nil {
			return w.sendError(false, err)
		}
		resp.Parts = append(resp.Parts, part)
	}
	// Checkpoint capture is read-only, hence naturally idempotent: a
	// retried CKPT just recaptures the same state. No cache needed.
	return w.send(mtParts, &resp)
}

// Dial connects to a coordinator address: paths (containing a '/') dial
// unix sockets, everything else TCP.
func Dial(addr string) (net.Conn, error) {
	if strings.Contains(addr, "/") {
		return net.Dial("unix", addr)
	}
	return net.Dial("tcp", addr)
}

// Listen is Dial's listener counterpart, used by the coordinator.
func Listen(addr string) (net.Listener, error) {
	if strings.Contains(addr, "/") {
		return net.Listen("unix", addr)
	}
	return net.Listen("tcp", addr)
}

// ErrDial reports that RunWorker never reached the coordinator at all — as
// opposed to losing an established connection, which a worker should answer
// by dialing back in. Callers use the distinction to decide between
// rejoining and giving up.
var ErrDial = errors.New("dshard: coordinator unreachable")

// RunWorker dials the coordinator (with jittered-backoff retries, since a
// freshly spawned worker often races the listener) and serves the protocol
// until shutdown. This is cmd/shardworker's whole job.
func RunWorker(ctx context.Context, addr string, opts WorkerOptions) error {
	var conn net.Conn
	var err error
	for attempt := 1; ; attempt++ {
		conn, err = Dial(addr)
		if err == nil {
			break
		}
		if attempt >= 8 {
			return fmt.Errorf("%w: dial %s: %v", ErrDial, addr, err)
		}
		delay := run.BackoffDelay(50*time.Millisecond, time.Second, 0, fmt.Sprintf("dial-%d", opts.Slot), attempt)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
	defer conn.Close()
	return ServeWorker(ctx, conn, opts)
}
