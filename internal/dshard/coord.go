package dshard

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/codec"
	"hotpotato/internal/mesh"
	"hotpotato/internal/run"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
)

// Spec is the routing problem a distributed run executes — the subset of
// shard.Options a worker needs to rebuild its share from an ASSIGN message.
type Spec struct {
	// Side is the mesh side (the mesh is always 2-dimensional: the
	// partition requires it); Wrap selects torus connectivity.
	Side int
	Wrap bool
	// Policy is the routing policy name, resolved on each worker (and once
	// on the coordinator, to validate it and read Deterministic).
	Policy string
	// Grid is the PxQ shard decomposition.
	Grid shard.Grid
	// Seed, MaxSteps, Validation, DetectLivelock mean what they do in
	// shard.Options.
	Seed           int64
	MaxSteps       int
	Validation     sim.ValidationLevel
	DetectLivelock bool
}

// WorkerProc is the coordinator's handle to a worker process it spawned.
// Stop kills the worker and reaps it; it must be safe to call on an
// already-dead worker.
type WorkerProc interface {
	Stop()
}

// Options configures a Coordinator.
type Options struct {
	// Workers is how many worker processes share the grid; each owns a
	// contiguous range of shard indices. 1 <= Workers <= Grid.Count().
	Workers int
	// Listen is the address workers dial: host:port for TCP (default
	// "127.0.0.1:0"), a path for a unix socket.
	Listen string
	// Token is the shared secret a HELLO must present.
	Token string
	// Policies resolves Spec.Policy; typically spec.NewPolicy. Required.
	Policies func(name string) (sim.Policy, error)
	// Spawn starts the worker for a slot, pointing it at addr; it is also
	// how a dead worker is re-spawned. Nil means workers are external: the
	// coordinator waits for them to dial in (and re-dial after a failure).
	Spawn func(slot int, addr string) (WorkerProc, error)

	// StepTimeout bounds one attempt of one barrier request per worker
	// (default 10s); a worker that misses it MaxRetries+1 times is declared
	// failed. MaxRetries defaults to 2; retries are safe because workers
	// cache and resend their per-step response.
	StepTimeout time.Duration
	MaxRetries  int
	// BackoffBase/BackoffMax space the retries (run.BackoffDelay; defaults
	// 50ms / 2s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// HeartbeatEvery is the beacon interval assigned to workers (default
	// 200ms); a worker silent for HeartbeatTimeout (default 2s) is declared
	// dead without waiting out the step deadline.
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration
	// RejoinTimeout is how long a recovery waits for a failed worker to be
	// re-spawned or to dial back in (default 15s).
	RejoinTimeout time.Duration
	// MaxRecoveries caps checkpoint rollbacks across the run. 0 means
	// DefaultMaxRecoveries; negative disables recovery (first failure
	// aborts).
	MaxRecoveries int

	// CheckpointEvery is the rollback/save cadence in steps (default 256).
	// CheckpointDir, when set, additionally persists each checkpoint with
	// shard.SaveDir — the directory interoperates with the in-process
	// engine's (a distributed run can resume an Engine checkpoint and vice
	// versa). CheckpointFormat defaults to checkpoint.Binary.
	CheckpointEvery  int
	CheckpointDir    string
	CheckpointFormat checkpoint.Format
	// Resume, when non-nil, starts the run from a coordinated checkpoint
	// instead of an initial packet population. Grid-flexible: the
	// checkpoint's grid need not match Spec.Grid.
	Resume *shard.Checkpoint

	// MaxWallTime bounds Run's wall-clock duration; 0 means no limit.
	MaxWallTime time.Duration
	// MaxFrame caps inbound frame payloads; <= 0 means DefaultMaxFrame.
	MaxFrame int
	// Logf, when non-nil, receives one line per notable event (worker
	// failures, recoveries, rejoins).
	Logf func(format string, args ...any)
}

// DefaultMaxRecoveries is how many checkpoint rollbacks a run tolerates
// when Options.MaxRecoveries is zero. Distributed runs exist to survive
// worker failures, so unlike the in-process engine the default is not "fail
// on first crash".
const DefaultMaxRecoveries = 8

const (
	defaultStepTimeout      = 10 * time.Second
	defaultHeartbeatTimeout = 2 * time.Second
	defaultRejoinTimeout    = 15 * time.Second
	defaultCheckpointEvery  = 256
)

// Failure classification sentinels for one barrier.
var (
	errAttemptTimeout = errors.New("dshard: barrier attempt timed out")
	errWorkerDead     = errors.New("dshard: worker connection dead")
	errNeedsLoad      = errors.New("dshard: worker demands reload")
	errFatalWorker    = errors.New("dshard: fatal worker error")
)

// ErrRunLost is returned when the coordinator cannot restore a full worker
// set within its recovery budget: the run is lost (though its checkpoint
// directory, if any, still allows a later resume).
var ErrRunLost = errors.New("dshard: run lost")

// workerFailure is one worker's failure in one phase.
type workerFailure struct {
	slot    int
	err     error
	respawn bool // connection/process unusable: tear down and re-admit
	fatal   bool // deterministic error: recovery would replay it
}

// workerSlot is the coordinator's per-worker state, touched by the
// coordinator loop alone.
type workerSlot struct {
	slot     int
	owned    []int
	conn     net.Conn
	in       frameReader
	lastSeen time.Time
	proc     WorkerProc

	// step is the sealed STEP frame the slot is sent next (kept for
	// resends), built from ingress, the buckets addressed to its shards;
	// stepped is its decoded reply, which aliases the slot's read buffer
	// until the connection is read again.
	step    []byte
	ingress []rawBucket
	stepped msgStepped
}

// drop severs the slot's connection; the next barrier reports it dead.
func (ws *workerSlot) drop() {
	if ws.conn != nil {
		ws.conn.Close()
		ws.conn = nil
	}
}

type admission struct {
	conn     net.Conn
	wantSlot int
}

// Coordinator drives one distributed sharded run: it owns the run's global
// state (its embedded shard.Ledger, the one shard.Engine embeds too), the
// worker set, and the last coordinated checkpoint, while the packet queues
// themselves live only on the workers.
//
// Not safe for concurrent use; one goroutine calls Run.
type Coordinator struct {
	shard.Ledger

	spec Spec
	opts Options
	// cfg is the run configuration the checkpoints record and resumes are
	// checked against.
	cfg shard.Config

	m       *mesh.Mesh
	part    *shard.Partition
	grid    shard.Grid
	ln      net.Listener
	admitCh chan admission
	workers []*workerSlot
	// workerOfShard maps a shard index to its owning slot.
	workerOfShard []int

	epoch uint64

	// staged reports that every worker has routed step c.Time() and the
	// slots' step frames carry its regrouped egress — true from one STEP
	// barrier to the next, false after a LOAD. stepReq, blocks and words
	// are per-step scratch.
	staged  bool
	stepReq msgStep
	blocks  [][]byte
	words   [][]uint64

	// lastCK is the last coordinated checkpoint, recovery's floor. A fresh
	// run's floor is the t=0 population as admit encoded it, one LOAD body
	// per shard in loads, and its Parts stay nil: they are decoded from the
	// bodies only when standing needs them. Every later floor is a
	// checkpoint of collected parts, and loads is nil.
	lastCK    *shard.Checkpoint
	loads     [][]byte
	finalHash uint64

	// StepHook, when set before Run, is called after every completed step
	// with the new time and live count. HashHook additionally receives each
	// step's global state hash (livelock detection must be on) — the
	// lockstep parity tests ride on it.
	StepHook func(t, live int)
	HashHook func(t int, h uint64)

	shutdownOnce sync.Once
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// New validates the spec and the initial packet population (or the resume
// checkpoint), binds the listener, and returns a coordinator ready to Run.
// The admission rules for packets are shard.New's. Callers running external
// workers read Addr after New.
func New(spec Spec, packets []*sim.Packet, opts Options) (*Coordinator, error) {
	if opts.Policies == nil {
		return nil, errors.New("dshard: Options.Policies is required")
	}
	if spec.MaxSteps <= 0 {
		spec.MaxSteps = sim.DefaultMaxSteps
	}
	spec.Grid = shard.Grid{P: spec.Grid.P, Q: spec.Grid.Q}
	var m *mesh.Mesh
	var err error
	if spec.Wrap {
		m, err = mesh.NewTorus(2, spec.Side)
	} else {
		m, err = mesh.New(2, spec.Side)
	}
	if err != nil {
		return nil, err
	}
	part, err := shard.NewPartition(m, spec.Grid)
	if err != nil {
		return nil, err
	}
	grid := part.Grid()
	spec.Grid = grid
	policy, err := opts.Policies(spec.Policy)
	if err != nil {
		return nil, err
	}
	if opts.Workers < 1 || opts.Workers > grid.Count() {
		return nil, fmt.Errorf("dshard: %d workers for %d shards (need 1 <= workers <= shards)", opts.Workers, grid.Count())
	}
	if opts.StepTimeout <= 0 {
		opts.StepTimeout = defaultStepTimeout
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = 2
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 50 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 2 * time.Second
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = defaultHeartbeat
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = defaultHeartbeatTimeout
	}
	if opts.RejoinTimeout <= 0 {
		opts.RejoinTimeout = defaultRejoinTimeout
	}
	switch {
	case opts.MaxRecoveries == 0:
		opts.MaxRecoveries = DefaultMaxRecoveries
	case opts.MaxRecoveries < 0:
		opts.MaxRecoveries = 0
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = defaultCheckpointEvery
	}
	if opts.CheckpointFormat == 0 {
		opts.CheckpointFormat = checkpoint.Binary
	}
	if opts.Listen == "" {
		opts.Listen = "127.0.0.1:0"
	}

	c := &Coordinator{
		Ledger: shard.NewLedger(spec.DetectLivelock && policy.Deterministic()),
		spec:   spec,
		opts:   opts,
		// The policy's display name, not the registry key (e.g.
		// "greedy-random" for "random"): what shard.Engine records, so the
		// checkpoint directories interoperate.
		cfg: shard.Config{
			Mesh: m, Policy: policy.Name(), Seed: spec.Seed, MaxSteps: spec.MaxSteps,
			Validation: spec.Validation, DetectLivelock: spec.DetectLivelock, Grid: grid,
		},
		m:             m,
		part:          part,
		grid:          grid,
		admitCh:       make(chan admission, 2*opts.Workers),
		workers:       make([]*workerSlot, opts.Workers),
		workerOfShard: make([]int, grid.Count()),
		blocks:        make([][]byte, grid.Count()),
		words:         make([][]uint64, grid.Count()),
	}
	// Contiguous shard ranges per slot: slot i owns count/W shards, the
	// first count%W slots one extra.
	count, w := grid.Count(), opts.Workers
	next := 0
	for slot := 0; slot < w; slot++ {
		n := count / w
		if slot < count%w {
			n++
		}
		ws := &workerSlot{slot: slot}
		for j := 0; j < n; j++ {
			ws.owned = append(ws.owned, next)
			c.workerOfShard[next] = slot
			next++
		}
		c.workers[slot] = ws
	}

	if opts.Resume != nil {
		if err := c.adoptCheckpoint(opts.Resume); err != nil {
			return nil, err
		}
	} else if err := c.admit(packets); err != nil {
		return nil, err
	}

	c.ln, err = Listen(opts.Listen)
	if err != nil {
		return nil, fmt.Errorf("dshard: listen: %w", err)
	}
	go c.acceptLoop()
	return c, nil
}

// Addr returns the address workers must dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Grid returns the shard decomposition.
func (c *Coordinator) Grid() shard.Grid { return c.grid }

// StateHash returns the final configuration hash, bit-identical to the
// equivalent single engine's StateHash at the same point — valid once Run
// has returned (the coordinator captures it from the workers' final
// checkpoint parts before shutting them down).
func (c *Coordinator) StateHash() uint64 { return c.finalHash }

// admit validates the initial packets and builds the t=0 floor —
// recovery's permanent one: a worker killed on the very first step still
// rejoins from somewhere. The floor is each shard's LOAD body, encoded once
// straight from the packets; no other copy of the population is made.
func (c *Coordinator) admit(packets []*sim.Packet) error {
	perNode := make([]int32, c.m.Size())
	nextID, err := sim.AdmitInitial(c.m, packets, func(p *sim.Packet) (int, bool) {
		held := int(perNode[p.Src])
		if held >= c.m.Degree(p.Src) {
			return held, false
		}
		perNode[p.Src]++
		return held + 1, true
	})
	if err != nil {
		return err
	}
	c.Admitted(packets, nextID)

	// A LOAD body lists its shard's packets in queue order over ascending
	// nodes, and within one node in injection order — the queue order
	// shard.New produces. Laid out shard after shard, the per-node counts
	// give every node its slot range, so one pass over the packets puts each
	// in its place and a second encodes them in that order.
	count := c.grid.Count()
	end := make([]int32, count) // one past each shard's last slot
	for node, n := range perNode {
		if n > 0 {
			end[c.part.Owner(mesh.NodeID(node))] += n
		}
	}
	for i := 1; i < count; i++ {
		end[i] += end[i-1]
	}
	next := make([]int32, count)
	copy(next[1:], end)
	for node, n := range perNode {
		if n > 0 {
			owner := c.part.Owner(mesh.NodeID(node))
			perNode[node], next[owner] = next[owner], next[owner]+n
		}
	}
	order := make([]*sim.Packet, c.Live())
	for _, p := range packets {
		if p.Arrived() { // source == destination: absorbed at time 0
			continue
		}
		order[perNode[p.Src]] = p
		perNode[p.Src]++
	}
	// The bodies share one buffer, presized from one encoded packet (plus a
	// byte of slack each) so that it is not regrown packet by packet; a short
	// guess costs only append's growth.
	var e codec.Enc
	if len(order) > 0 {
		sim.EncodePacket(&e, order[len(order)-1])
		e.B = make([]byte, 0, (len(e.B)+1)*len(order)+binary.MaxVarintLen64*count)
	}
	cut := make([]int, count+1) // shard i's body is e.B[cut[i]:cut[i+1]]
	from := int32(0)
	for i, to := range end {
		e.U64(uint64(to - from))
		for _, p := range order[from:to] {
			sim.EncodePacket(&e, p)
		}
		cut[i+1], from = len(e.B), to
	}
	c.loads = make([][]byte, count)
	for i := range c.loads {
		c.loads[i] = e.B[cut[i]:cut[i+1]:cut[i+1]]
	}
	m, err := c.Manifest(c.cfg)
	if err != nil {
		return err
	}
	c.lastCK = &shard.Checkpoint{Manifest: m}
	return nil
}

// adoptCheckpoint resumes from a coordinated checkpoint once it passes
// shard's checkpoint guard — the one shard.Engine.Restore applies. The
// writer's grid need not match: parts are re-partitioned by current
// ownership at load time.
func (c *Coordinator) adoptCheckpoint(ck *shard.Checkpoint) error {
	if err := ck.Check(c.cfg); err != nil {
		return err
	}
	c.lastCK, c.loads = ck, nil
	c.rollback()
	return nil
}

// rollback resets the run's global state to the last coordinated
// checkpoint's manifest, with nothing staged — the resume path and every
// recovery go through it.
func (c *Coordinator) rollback() {
	c.Restore(&c.lastCK.Manifest)
	c.staged = false
}

// ----- admission ---------------------------------------------------------

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.handshake(conn)
	}
}

// handshake validates a dialing worker's HELLO and queues it for adoption.
func (c *Coordinator) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := ReadFrame(conn, c.opts.MaxFrame)
	if err != nil || typ != mtHello {
		conn.Close()
		return
	}
	h, err := decodeHello(payload)
	if err != nil || h.Proto != protoVersion || h.Token != c.opts.Token {
		c.logf("coordinator: rejecting worker handshake: err=%v proto=%d", err, h.Proto)
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	select {
	case c.admitCh <- admission{conn: conn, wantSlot: h.Slot}:
	default:
		conn.Close()
	}
}

// adopt binds admitted connections to the needed slots, honoring requested
// slots, until all are filled or the timeout expires.
func (c *Coordinator) adopt(ctx context.Context, slots []int) error {
	need := make(map[int]bool, len(slots))
	for _, s := range slots {
		need[s] = true
	}
	timeout := time.NewTimer(c.opts.RejoinTimeout)
	defer timeout.Stop()
wait:
	for len(need) > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timeout.C:
			break wait
		case ad := <-c.admitCh:
			slot := -1
			switch {
			case ad.wantSlot >= 0 && need[ad.wantSlot]:
				slot = ad.wantSlot
			case ad.wantSlot < 0:
				for s := range need {
					if slot < 0 || s < slot {
						slot = s
					}
				}
			}
			if slot < 0 {
				ad.conn.Close() // claims a slot that is not open
				continue
			}
			ws := c.workers[slot]
			ws.conn = ad.conn
			ws.in = frameReader{r: bufio.NewReaderSize(ad.conn, 64<<10), max: c.opts.MaxFrame}
			ws.lastSeen = time.Now()
			delete(need, slot)
			c.logf("coordinator: worker joined slot %d (shards %v)", slot, ws.owned)
		}
	}
	if len(need) > 0 {
		missing := make([]int, 0, len(need))
		for s := range need {
			missing = append(missing, s)
		}
		sort.Ints(missing)
		return fmt.Errorf("%w: slots %v did not join within %s", ErrRunLost, missing, c.opts.RejoinTimeout)
	}
	return nil
}

// ----- transport ---------------------------------------------------------

// write puts one sealed frame on the slot's connection with one Write call.
func (ws *workerSlot) write(timeout time.Duration, frame []byte) error {
	if ws.conn == nil {
		return fmt.Errorf("%w: slot %d has no connection", errWorkerDead, ws.slot)
	}
	ws.conn.SetWriteDeadline(time.Now().Add(timeout))
	_, err := ws.conn.Write(frame)
	return err
}

// awaitFrame reads until the wanted response of (epoch, wantT) arrives; the
// payload is valid until the slot's connection is read again. Heartbeats
// refresh liveness; stale frames (duplicates, responses from before a
// recovery, late responses of earlier barriers) are skipped; worker ERROR
// frames and transport failures classify via the sentinel errors.
func (c *Coordinator) awaitFrame(ws *workerSlot, wantTyp byte, wantT int, deadline time.Time) ([]byte, error) {
	skips := 0
	for {
		// Silence and lateness are only ever concluded from a read that
		// came back empty: while the coordinator was reading other slots,
		// this one's frames queued up unseen, and a read finds them at once.
		now := time.Now()
		hbDeadline := ws.lastSeen.Add(c.opts.HeartbeatTimeout)
		rd := deadline
		if hbDeadline.Before(rd) {
			rd = hbDeadline
		}
		if !rd.After(now) {
			rd = now.Add(time.Millisecond)
		}
		ws.conn.SetReadDeadline(rd)
		typ, payload, err := ws.in.next()
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				switch now = time.Now(); {
				case !now.Before(hbDeadline):
					return nil, fmt.Errorf("%w: slot %d silent for %s", errWorkerDead, ws.slot, now.Sub(ws.lastSeen).Round(time.Millisecond))
				case !now.Before(deadline):
					return nil, errAttemptTimeout
				}
				continue
			}
			if errors.Is(err, ErrFrameCorrupt) {
				return nil, err // loud and typed; recovery, never a guess
			}
			return nil, fmt.Errorf("%w: slot %d: %v", errWorkerDead, ws.slot, err)
		}
		ws.lastSeen = time.Now()
		switch typ {
		case mtHeartbeat:
			continue
		case mtError:
			m, derr := decodeError(payload)
			if derr != nil {
				return nil, derr
			}
			if m.Epoch < c.epoch {
				continue // from before a recovery
			}
			if m.Fatal {
				return nil, fmt.Errorf("%w: slot %d: %s", errFatalWorker, ws.slot, m.Msg)
			}
			return nil, fmt.Errorf("%w: slot %d: %s", errNeedsLoad, ws.slot, m.Msg)
		case wantTyp:
			// Every response payload leads with (epoch, t); peek them.
			d := codec.Dec{B: payload}
			epoch, t := d.U64(), d.Num()
			if err := d.Err(); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
			}
			if epoch == c.epoch && t == wantT {
				return payload, nil
			}
		}
		// A stale or cross-phase frame (retry duplicate, pre-recovery
		// leftovers): skip, boundedly.
		if skips++; skips > 256 {
			return nil, fmt.Errorf("%w: slot %d flooding stale frames", errWorkerDead, ws.slot)
		}
	}
}

// failureOf classifies one slot's barrier error: a deterministic worker
// error (or the caller giving up) must not be replayed, a demanded reload
// keeps the connection, and everything else — dead, corrupt, malformed,
// unresponsive — costs the worker its slot.
func failureOf(ws *workerSlot, err error) workerFailure {
	f := workerFailure{slot: ws.slot, err: err}
	switch {
	case errors.Is(err, errFatalWorker), errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		f.fatal = true
	case !errors.Is(err, errNeedsLoad):
		f.respawn = true
	}
	return f
}

// barrier is one round trip with every worker, driven from the calling
// goroutine: every request is written before any reply is read, so the
// workers compute side by side and the coordinator parks once per reply,
// against one shared deadline. req yields a slot's sealed request frame;
// handle consumes its reply payload, valid until the slot is read again.
// The slots whose reply missed the deadline go round again, boundedly and
// after a jittered backoff, with the same frame — safe by construction: a
// worker answers a re-asked STEP from its cached reply, and LOAD and CKPT
// re-execute to the same state, so a request or reply lost in flight is
// recovered without re-executing the step. Failures come back ordered by
// slot.
func (c *Coordinator) barrier(ctx context.Context, wantTyp byte, wantT int, req func(*workerSlot) []byte, handle func(*workerSlot, []byte) error) []workerFailure {
	var fails []workerFailure
	pending := c.workers
	for attempt := 0; len(pending) > 0; attempt++ {
		if attempt > 0 {
			delay := run.BackoffDelay(c.opts.BackoffBase, c.opts.BackoffMax, c.spec.Seed, fmt.Sprintf("slot-%d", pending[0].slot), attempt)
			select {
			case <-ctx.Done():
				return append(fails, failureOf(pending[0], ctx.Err()))
			case <-time.After(delay):
			}
			c.logf("coordinator: retry %d of barrier %d for %d late slots", attempt, wantT, len(pending))
		}
		for _, ws := range pending {
			if err := ws.write(c.opts.StepTimeout, req(ws)); err != nil {
				ws.drop()
				fails = append(fails, failureOf(ws, err))
			}
		}
		deadline := time.Now().Add(c.opts.StepTimeout)
		var late []*workerSlot
		for _, ws := range pending {
			if ws.conn == nil {
				continue
			}
			payload, err := c.awaitFrame(ws, wantTyp, wantT, deadline)
			switch {
			case errors.Is(err, errAttemptTimeout) && attempt < c.opts.MaxRetries:
				late = append(late, ws)
				continue
			case errors.Is(err, errAttemptTimeout):
				err = fmt.Errorf("slot %d unresponsive after %d attempts: %w", ws.slot, attempt+1, err)
			case err == nil:
				err = handle(ws, payload)
			}
			if err != nil {
				fails = append(fails, failureOf(ws, err))
			}
		}
		pending = late
	}
	sort.Slice(fails, func(i, j int) bool { return fails[i].slot < fails[j].slot })
	return fails
}

// ----- phases ------------------------------------------------------------

// standing rolls the coordinator back to the last coordinated checkpoint and
// re-expresses it on the current grid, with the current manifest: what the
// workers would capture if they were loaded from it and asked at once. A run
// that cannot wait for its workers any longer ends on it.
func (c *Coordinator) standing() (*shard.Checkpoint, error) {
	c.rollback()
	m, err := c.Manifest(c.cfg)
	if err != nil {
		return nil, err
	}
	parts, err := c.floorParts()
	if err != nil {
		return nil, err
	}
	ck := &shard.Checkpoint{Manifest: m}
	for i, pkts := range parts {
		// A part lists packets over ascending nodes; a re-partition strings
		// together runs of them (a part that was handed on is sorted already).
		slices.SortStableFunc(pkts, func(a, b sim.PacketState) int { return int(a.Node) - int(b.Node) })
		ck.Parts = append(ck.Parts, shard.ShardPart{Version: shard.CheckpointVersion, Index: i, Time: m.Time, Packets: pkts})
	}
	return ck, nil
}

// floorParts returns the floor's live packets per shard of the current
// grid: the t=0 LOAD bodies decoded, or the floor checkpoint's parts
// re-partitioned.
func (c *Coordinator) floorParts() ([][]sim.PacketState, error) {
	if c.loads == nil {
		return c.part.Repartition(c.lastCK), nil
	}
	parts := make([][]sim.PacketState, len(c.loads))
	for i, body := range c.loads {
		d := codec.Dec{B: body}
		parts[i] = sim.DecodePackets(&d, "packet")
		if err := d.Done(); err != nil {
			return nil, fmt.Errorf("dshard: t=0 load of shard %d: %w", i, err)
		}
	}
	return parts, nil
}

// phaseLoad pushes the floor's state to every worker: ASSIGN for slots
// whose connection is new (they need the problem definition), then LOAD
// with each owned shard's packets — the t=0 bodies as admit encoded them,
// or the floor checkpoint's parts.
func (c *Coordinator) phaseLoad(ctx context.Context, assign map[int]bool) []workerFailure {
	var parts [][]sim.PacketState
	if c.loads == nil {
		parts = c.part.Repartition(c.lastCK)
	}
	t := c.lastCK.Manifest.Time
	for _, ws := range c.workers {
		if assign[ws.slot] {
			a := msgAssign{
				Epoch: c.epoch, Side: c.spec.Side, Wrap: c.spec.Wrap,
				GridP: c.grid.P, GridQ: c.grid.Q, Policy: c.spec.Policy,
				Seed: c.spec.Seed, Validation: int(c.spec.Validation),
				HashWords: c.Hashing(), Owned: ws.owned,
				HeartbeatMillis: c.opts.HeartbeatEvery.Milliseconds(),
			}
			if err := ws.write(c.opts.StepTimeout, frameOf(nil, mtAssign, &a)); err != nil {
				ws.drop() // the barrier below reports it
			}
		}
	}
	// Each LOAD frame is built just before it is written, so the first
	// worker decodes while the next one's frame is being encoded.
	frames := make([][]byte, len(c.workers))
	return c.barrier(ctx, mtLoaded, t, func(ws *workerSlot) []byte {
		if frames[ws.slot] == nil {
			l := msgLoad{Epoch: c.epoch, T: t}
			size := frameHeaderLen + 3*binary.MaxVarintLen64 // header, epoch, time, shard count
			for _, idx := range ws.owned {
				sl := shardLoad{Index: idx}
				if c.loads != nil {
					sl.Body = c.loads[idx]
					size += binary.MaxVarintLen64 + len(sl.Body)
				} else {
					sl.Packets = parts[idx]
				}
				l.Shards = append(l.Shards, sl)
			}
			frames[ws.slot] = frameOf(make([]byte, 0, size), mtLoad, &l)
		}
		return frames[ws.slot]
	}, func(*workerSlot, []byte) error { return nil })
}

// stageStep seals every slot's next STEP frame: barrier time t, applying
// step t-1 from the slot's ingress when apply is set, routing step t unless
// it is the step budget. The ingress bodies are copied here, out of the
// read buffers they arrived in.
func (c *Coordinator) stageStep(t int, apply bool) {
	for _, ws := range c.workers {
		c.stepReq = msgStep{Epoch: c.epoch, T: t, Apply: apply, Route: t < c.spec.MaxSteps, Ingress: ws.ingress}
		ws.step = frameOf(ws.step, mtStep, &c.stepReq)
	}
}

// stepBarrier sends the staged STEP frames and decodes every slot's reply
// into ws.stepped, then re-keys the egress buckets by receiving worker —
// from their headers alone; the bodies stay the bytes the senders encoded.
func (c *Coordinator) stepBarrier(ctx context.Context, t int, apply bool) []workerFailure {
	route := t < c.spec.MaxSteps
	fails := c.barrier(ctx, mtStepped, t, func(ws *workerSlot) []byte { return ws.step }, func(ws *workerSlot, payload []byte) error {
		m := &ws.stepped
		if err := decodeStepped(payload, m); err != nil {
			return err
		}
		if m.Applied != apply || m.Routed != route {
			return fmt.Errorf("%w: slot %d answered barrier %d with applied=%v routed=%v", ErrBadMessage, ws.slot, t, m.Applied, m.Routed)
		}
		for i := range m.Egress {
			if to := m.Egress[i].To; to < 0 || to >= len(c.workerOfShard) {
				return fmt.Errorf("%w: slot %d: bucket for shard %d", ErrBadMessage, ws.slot, to)
			}
		}
		return nil
	})
	if len(fails) > 0 {
		return fails
	}
	for _, ws := range c.workers {
		ws.ingress = ws.ingress[:0]
	}
	for _, ws := range c.workers {
		for _, b := range ws.stepped.Egress {
			dst := c.workers[c.workerOfShard[b.To]]
			dst.ingress = append(dst.ingress, b)
		}
	}
	return nil
}

// collectParts captures every shard's checkpoint part at the current
// barrier.
func (c *Coordinator) collectParts(ctx context.Context) ([]shard.ShardPart, []workerFailure) {
	t := c.Time()
	req := frameOf(nil, mtCkpt, &msgAt{Epoch: c.epoch, T: t})
	got := make([][]shard.ShardPart, len(c.workers))
	fails := c.barrier(ctx, mtParts, t, func(*workerSlot) []byte { return req }, func(ws *workerSlot, payload []byte) error {
		m, err := decodeParts(payload)
		got[ws.slot] = m.Parts
		return err
	})
	if len(fails) > 0 {
		return nil, fails
	}
	parts := make([]shard.ShardPart, c.grid.Count())
	seen := make([]bool, len(parts))
	for slot, ps := range got {
		for _, part := range ps {
			if part.Index < 0 || part.Index >= len(parts) || part.Time != t {
				return nil, []workerFailure{{slot: slot, err: fmt.Errorf("%w: bad part %d@%d", ErrBadMessage, part.Index, part.Time), respawn: true}}
			}
			parts[part.Index], seen[part.Index] = part, true
		}
	}
	for idx, ok := range seen {
		if !ok {
			return nil, []workerFailure{{slot: c.workerOfShard[idx], err: fmt.Errorf("%w: shard %d part missing", ErrBadMessage, idx), respawn: true}}
		}
	}
	return parts, nil
}

// ----- hashing -----------------------------------------------------------

// foldBlocks folds the per-shard hash-word blocks of the step just applied
// (each in ascending node order, 8 bytes little-endian a word) into the
// global configuration hash.
func (c *Coordinator) foldBlocks() uint64 {
	for i, b := range c.blocks {
		w := c.words[i][:0]
		for j := 0; j+8 <= len(b); j += 8 {
			w = append(w, binary.LittleEndian.Uint64(b[j:]))
		}
		c.words[i] = w
	}
	return c.part.FoldHash(c.words)
}

// foldParts is foldBlocks over checkpoint parts: the end-of-run state hash
// is computed from the final parts so it exists even when livelock
// detection (and therefore per-step word shipping) is off.
func (c *Coordinator) foldParts(parts []shard.ShardPart) uint64 {
	var p sim.Packet
	for i := range parts {
		w := c.words[i][:0]
		for j := range parts[i].Packets {
			parts[i].Packets[j].Fill(&p)
			id, pos := sim.ConfigHashPacketWords(&p)
			w = append(w, id, pos)
		}
		c.words[i] = w
	}
	return c.part.FoldHash(c.words)
}

// ----- run loop ----------------------------------------------------------

func (c *Coordinator) runnable() bool { return c.Runnable(c.spec.MaxSteps, false) }

// step completes step c.time with one round trip: every worker applies it
// from the staged ingress and, in the same breath, routes the step after it
// — whose egress comes back on the reply that reports this one, and is
// staged at once. Only right after a LOAD, when nothing has been routed yet,
// does a route-only barrier come first. Any failure leaves the global state
// untouched — the step either completes on every worker or is re-executed
// from a rollback.
func (c *Coordinator) step(ctx context.Context) []workerFailure {
	t := c.Time()
	if !c.staged {
		c.stageStep(t, false)
		if fails := c.stepBarrier(ctx, t, false); len(fails) > 0 {
			return fails
		}
		c.stageStep(t+1, true)
	}
	c.staged = false
	if fails := c.stepBarrier(ctx, t+1, true); len(fails) > 0 {
		return fails
	}

	clear(c.blocks)
	for _, ws := range c.workers {
		ap := &ws.stepped
		c.Fold(t, &shard.ApplyReport{
			Hops: ap.Hops, Deflections: ap.Deflections, Arrivals: ap.Arrivals,
			LastArrival: ap.LastArrival, Reroutes: ap.Reroutes, MaxNodeLoad: ap.MaxNodeLoad,
		})
		c.ArrivedEncoded(ap.Finalized)
		for i := range ap.Blocks {
			if b := &ap.Blocks[i]; b.Shard >= 0 && b.Shard < len(c.blocks) {
				c.blocks[b.Shard] = b.Words
			}
		}
	}
	if c.StepHook != nil {
		c.StepHook(t+1, c.Live())
	}
	if c.Hashing() && c.Live() > 0 {
		h := c.foldBlocks()
		if c.HashHook != nil {
			c.HashHook(t+1, h)
		}
		c.Observe(h)
	}
	// The egress of the step just routed is staged last, once nothing else
	// aliases the read buffers it lies in.
	if c.staged = t+1 < c.spec.MaxSteps; c.staged {
		c.stageStep(t+2, true)
	}
	return nil
}

// ensureWorkers spawns (when a spawner is configured) and adopts workers
// for the given slots.
func (c *Coordinator) ensureWorkers(ctx context.Context, slots []int) error {
	if c.opts.Spawn != nil {
		for _, slot := range slots {
			proc, err := c.opts.Spawn(slot, c.Addr())
			if err != nil {
				return fmt.Errorf("%w: spawn slot %d: %v", ErrRunLost, slot, err)
			}
			c.workers[slot].proc = proc
		}
	}
	return c.adopt(ctx, slots)
}

// recoverFrom is the rejoin state machine: tear down failed workers,
// re-spawn or await their replacements, bump the epoch so every in-flight
// frame from before the failure is recognizably stale, reload every worker
// (failed and healthy alike) from the last coordinated checkpoint, and roll
// the coordinator's own state back to its manifest. It loops until a load
// completes cleanly or the recovery budget is exhausted.
func (c *Coordinator) recoverFrom(ctx context.Context, fails []workerFailure) error {
	for {
		for _, f := range fails {
			if f.fatal {
				return f.err
			}
		}
		if c.Recovered() > c.opts.MaxRecoveries {
			errs := make([]error, 0, len(fails)+1)
			errs = append(errs, fmt.Errorf("%w: recovery budget (%d) exhausted", ErrRunLost, c.opts.MaxRecoveries))
			for _, f := range fails {
				errs = append(errs, f.err)
			}
			return errors.Join(errs...)
		}

		var respawn []int
		newConn := make(map[int]bool)
		for _, f := range fails {
			c.logf("coordinator: worker slot %d failed (recovery %d/%d): %v", f.slot, c.Recoveries(), c.opts.MaxRecoveries, f.err)
			if !f.respawn {
				continue
			}
			ws := c.workers[f.slot]
			ws.drop()
			if ws.proc != nil {
				ws.proc.Stop()
				ws.proc = nil
			}
			respawn = append(respawn, f.slot)
			newConn[f.slot] = true
		}
		c.epoch++
		if len(respawn) > 0 {
			if err := c.ensureWorkers(ctx, respawn); err != nil {
				return err
			}
		}
		c.logf("coordinator: rolling back to checkpoint of step %d (epoch %d)", c.lastCK.Manifest.Time, c.epoch)
		fails = c.phaseLoad(ctx, newConn)
		if len(fails) == 0 {
			c.rollback()
			return nil
		}
	}
}

// Run executes the distributed run to completion: spawn/await the workers,
// distribute the initial (or resumed) state, drive the step barrier with
// periodic coordinated checkpoints, recover from worker failures, capture
// the final state hash, and shut the workers down. The Result contract is
// sim's, exactly as for shard.Engine.
func (c *Coordinator) Run(ctx context.Context) (*sim.Result, error) {
	defer c.Close()

	stop := sim.NewStopFlag(ctx, c.opts.MaxWallTime)
	defer stop.Release()

	wrote := false
	persist := func(ck *shard.Checkpoint) error {
		if c.opts.CheckpointDir == "" {
			return nil
		}
		if err := shard.SaveDir(c.opts.CheckpointDir, ck, c.opts.CheckpointFormat); err != nil {
			return err
		}
		wrote = true
		return nil
	}
	// save gives the parts of the current barrier their manifest and
	// persists the checkpoint.
	save := func(parts []shard.ShardPart) (*shard.Checkpoint, error) {
		m, err := c.Manifest(c.cfg)
		if err != nil {
			return nil, err
		}
		ck := &shard.Checkpoint{Manifest: m, Parts: parts}
		return ck, persist(ck)
	}
	// lost ends a run that cannot go on. When the reason is the caller
	// giving up while the coordinator waited on workers — bring-up, a
	// retry's backoff, a recovery — the last coordinated checkpoint is where
	// the run stands: roll back to it, make sure it is on disk, and report it
	// the way a stop between steps is reported.
	lost := func(err error) (*sim.Result, error) {
		if ctx.Err() == nil || !errors.Is(err, ctx.Err()) {
			return nil, err
		}
		ck, err := c.standing()
		if err == nil && !wrote {
			err = persist(ck)
		}
		if err != nil {
			return nil, fmt.Errorf("dshard: final checkpoint save: %w", err)
		}
		c.finalHash = c.foldParts(ck.Parts)
		runErr := c.Stopped(ctx)
		return c.Result(c.spec.MaxSteps), runErr
	}

	// Bring up the fleet and distribute the starting state.
	slots := make([]int, len(c.workers))
	assign := make(map[int]bool, len(c.workers))
	for i := range slots {
		slots[i] = i
		assign[i] = true
	}
	c.epoch = 1
	if err := c.ensureWorkers(ctx, slots); err != nil {
		return lost(err)
	}
	if fails := c.phaseLoad(ctx, assign); len(fails) > 0 {
		if err := c.recoverFrom(ctx, fails); err != nil {
			return lost(err)
		}
	}

	sinceCK, sinceDisk := 0, 0
	var runErr error
	for {
		for c.runnable() && !stop.Stopped() {
			fails := c.step(ctx)
			var parts []shard.ShardPart
			if len(fails) == 0 {
				sinceCK++
				sinceDisk++
				if sinceCK < c.opts.CheckpointEvery {
					continue
				}
				parts, fails = c.collectParts(ctx)
			}
			if len(fails) > 0 {
				if err := c.recoverFrom(ctx, fails); err != nil {
					return lost(err)
				}
				sinceCK = 0
				continue
			}
			ck, err := save(parts)
			if err != nil {
				return nil, fmt.Errorf("dshard: checkpoint save: %w", err)
			}
			c.lastCK, c.loads = ck, nil
			sinceCK, sinceDisk = 0, 0
		}
		runErr = nil
		if c.runnable() { // stopped early: resolve the cause
			runErr = c.Stopped(ctx)
		}
		// Capture the final state: the run's state hash (for parity and
		// fingerprinting) and, when stopping early with unsaved progress,
		// the resume checkpoint. A worker dying between the last step and
		// this capture must not lose the run either: recover and loop back
		// — the rollback reopens the step loop, which re-runs to the end.
		parts, fails := c.collectParts(ctx)
		if len(fails) == 0 {
			c.finalHash = c.foldParts(parts)
			// An early stop persists its progress; even one cancelled before
			// the first step saves the initial state — that is the job itself.
			if c.runnable() && (sinceDisk > 0 || !wrote) && c.opts.CheckpointDir != "" {
				if _, err := save(parts); err != nil && runErr == nil {
					runErr = fmt.Errorf("dshard: final checkpoint save: %w", err)
				}
			}
			break
		}
		if err := c.recoverFrom(ctx, fails); err != nil {
			if ctx.Err() != nil {
				return lost(err)
			}
			c.logf("coordinator: final state capture failed: %v", err)
			break
		}
		sinceCK = 0
	}
	c.shutdownWorkers()
	return c.Result(c.spec.MaxSteps), runErr
}

// shutdownWorkers asks every worker to exit cleanly, then severs.
func (c *Coordinator) shutdownWorkers() {
	for _, ws := range c.workers {
		if ws.conn != nil {
			ws.write(time.Second, frameOf(nil, mtShutdown, &msgAt{Epoch: c.epoch}))
		}
	}
	for _, ws := range c.workers {
		ws.drop()
		if ws.proc != nil {
			ws.proc.Stop()
			ws.proc = nil
		}
	}
}

// Close releases the listener and any remaining workers. Safe to call more
// than once; Run calls it on exit.
func (c *Coordinator) Close() {
	c.shutdownOnce.Do(func() {
		c.shutdownWorkers()
		c.ln.Close()
	})
}
