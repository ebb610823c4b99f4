package dshard

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
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

	// StepTimeout bounds one attempt of one phase request per worker
	// (default 10s); a worker that misses it MaxRetries+1 times is declared
	// failed. MaxRetries defaults to 2; retries are safe because workers
	// cache and resend their per-step responses.
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

// Failure classification sentinels for one phase exchange.
var (
	errAttemptTimeout = errors.New("dshard: phase attempt timed out")
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

// workerSlot is the coordinator's per-worker state. A slot's connection is
// only touched by the slot's own phase goroutine during a phase and by the
// coordinator loop between phases, so it needs no lock.
type workerSlot struct {
	slot     int
	owned    []int
	conn     net.Conn
	br       *bufio.Reader
	lastSeen time.Time
	proc     WorkerProc
}

type admission struct {
	conn     net.Conn
	wantSlot int
}

// Coordinator drives one distributed sharded run: it owns the global
// simulation state (time, live count, counters, livelock detector,
// finalized packets), the worker set, and the last coordinated checkpoint,
// while the packet queues themselves live only on the workers.
//
// Not safe for concurrent use; one goroutine calls Run.
type Coordinator struct {
	spec Spec
	opts Options

	m       *mesh.Mesh
	part    *shard.Partition
	grid    shard.Grid
	ln      net.Listener
	admitCh chan admission
	workers []*workerSlot
	// workerOfShard maps a shard index to its owning slot.
	workerOfShard []int

	epoch        uint64
	time         int
	live         int
	lastArrival  int
	nextID       int
	total        int
	livelock     bool
	livelockable bool
	// polName is the resolved policy's display name — what shard.Engine
	// records in checkpoint manifests, so the directories interoperate even
	// when the registry key differs (e.g. "random" vs "greedy-random").
	polName string
	seen    map[uint64]int

	totalHops        int64
	totalDeflections int64
	reroutes         int64
	maxNodeLoad      int
	recoveries       int
	deadlineExceeded bool
	finalized        []sim.PacketState

	lastCK    *shard.Checkpoint
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
		spec:          spec,
		opts:          opts,
		m:             m,
		part:          part,
		grid:          grid,
		admitCh:       make(chan admission, 2*opts.Workers),
		workers:       make([]*workerSlot, opts.Workers),
		workerOfShard: make([]int, grid.Count()),
		polName:       policy.Name(),
		livelockable:  spec.DetectLivelock && policy.Deterministic(),
	}
	if c.livelockable {
		c.seen = make(map[uint64]int)
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

// Time, Live, Livelocked, Recoveries mirror shard.Engine's accessors.
func (c *Coordinator) Time() int        { return c.time }
func (c *Coordinator) Live() int        { return c.live }
func (c *Coordinator) Livelocked() bool { return c.livelock }
func (c *Coordinator) Recoveries() int  { return c.recoveries }

// Progress mirrors shard.Engine.Progress, so frontends report distributed
// runs through the same code path.
func (c *Coordinator) Progress() sim.Progress {
	return sim.Progress{
		Time:             c.time,
		Live:             c.live,
		Delivered:        c.total - c.live,
		Total:            c.total,
		TotalHops:        c.totalHops,
		TotalDeflections: c.totalDeflections,
		MaxNodeLoad:      c.maxNodeLoad,
	}
}

// StateHash returns the final configuration hash, bit-identical to the
// equivalent single engine's StateHash at the same point — valid once Run
// has returned (the coordinator captures it from the workers' final
// checkpoint parts before shutting them down).
func (c *Coordinator) StateHash() uint64 { return c.finalHash }

// admit validates the initial packets and builds the t=0 coordinated
// checkpoint — recovery's permanent floor: a worker killed on the very
// first step still rejoins from somewhere.
func (c *Coordinator) admit(packets []*sim.Packet) error {
	perNode := make(map[mesh.NodeID]int)
	byShard := make([][]sim.PacketState, c.grid.Count())
	nextID, err := sim.AdmitInitial(c.m, packets, func(p *sim.Packet) (int, bool) {
		held := perNode[p.Src]
		if held >= c.m.Degree(p.Src) {
			return held, false
		}
		perNode[p.Src] = held + 1
		owner := c.part.Owner(p.Src)
		byShard[owner] = append(byShard[owner], sim.CapturePacket(p))
		c.live++
		return held + 1, true
	})
	if err != nil {
		return err
	}
	c.nextID = nextID
	for _, p := range packets {
		if p.Arrived() { // source == destination: absorbed at time 0
			c.finalized = append(c.finalized, sim.CapturePacket(p))
		}
	}
	c.total = len(packets)

	ck := &shard.Checkpoint{Parts: make([]shard.ShardPart, c.grid.Count())}
	for i := range byShard {
		// Checkpoint parts hold packets in queue order over ascending
		// nodes; a stable sort by node keeps injection order within one
		// node, which is the queue order shard.New produces.
		sort.SliceStable(byShard[i], func(a, b int) bool { return byShard[i][a].Node < byShard[i][b].Node })
		ck.Parts[i] = shard.ShardPart{Version: shard.CheckpointVersion, Index: i, Time: 0, Packets: byShard[i]}
	}
	ck.Manifest = c.manifest()
	c.lastCK = ck
	return nil
}

// adoptCheckpoint resumes from a coordinated checkpoint, applying the same
// configuration guards as shard.Engine.Restore. The writer's grid need not
// match: parts are re-partitioned by current ownership at load time.
func (c *Coordinator) adoptCheckpoint(ck *shard.Checkpoint) error {
	m := &ck.Manifest
	switch {
	case m.Version > shard.CheckpointVersion:
		return fmt.Errorf("%w: schema v%d, this build reads up to v%d", shard.ErrBadCheckpoint, m.Version, shard.CheckpointVersion)
	case m.MeshDim != 2 || m.MeshSide != c.spec.Side || m.MeshWrap != c.spec.Wrap:
		return fmt.Errorf("%w: mesh mismatch: checkpoint dim=%d side=%d wrap=%v, spec side=%d wrap=%v",
			shard.ErrBadCheckpoint, m.MeshDim, m.MeshSide, m.MeshWrap, c.spec.Side, c.spec.Wrap)
	case m.PolicyName != c.polName:
		return fmt.Errorf("%w: policy mismatch: checkpoint %q, spec %q", shard.ErrBadCheckpoint, m.PolicyName, c.polName)
	case m.Seed != c.spec.Seed:
		return fmt.Errorf("%w: seed mismatch: checkpoint %d, spec %d", shard.ErrBadCheckpoint, m.Seed, c.spec.Seed)
	case m.Validation != c.spec.Validation:
		return fmt.Errorf("%w: validation mismatch", shard.ErrBadCheckpoint)
	case m.DetectLive != c.spec.DetectLivelock:
		return fmt.Errorf("%w: livelock detection mismatch", shard.ErrBadCheckpoint)
	case m.Shards != len(ck.Parts):
		return fmt.Errorf("%w: manifest lists %d shards, checkpoint has %d parts", shard.ErrBadCheckpoint, m.Shards, len(ck.Parts))
	case m.HasInjector:
		return fmt.Errorf("%w: checkpoint carries injector state; distributed runs do not support arrival-driven traffic", shard.ErrBadCheckpoint)
	}
	live := 0
	for i := range ck.Parts {
		if ck.Parts[i].Time != m.Time {
			return fmt.Errorf("%w: part %d is from step %d, manifest from step %d (torn checkpoint)",
				shard.ErrBadCheckpoint, ck.Parts[i].Index, ck.Parts[i].Time, m.Time)
		}
		live += len(ck.Parts[i].Packets)
	}
	if live != m.Live {
		return fmt.Errorf("%w: manifest says %d live packets, parts carry %d", shard.ErrBadCheckpoint, m.Live, live)
	}
	c.lastCK = ck
	c.restoreState(m)
	c.total = live + len(m.Finalized)
	return nil
}

// restoreState resets the coordinator's global state to a manifest — the
// resume path and every rollback go through it.
func (c *Coordinator) restoreState(m *shard.Manifest) {
	c.time = m.Time
	c.live = m.Live
	c.lastArrival = m.LastArrival
	c.nextID = m.NextID
	c.livelock = m.Livelocked
	c.totalDeflections = m.TotalDeflections
	c.totalHops = m.TotalHops
	c.maxNodeLoad = m.MaxNodeLoad
	c.reroutes = m.Reroutes
	c.deadlineExceeded = false
	c.finalized = append(c.finalized[:0], m.Finalized...)
	if c.livelockable {
		c.seen = make(map[uint64]int, len(m.Seen))
		for _, sn := range m.Seen {
			c.seen[sn.Hash] = sn.Time
		}
	}
}

// manifest snapshots the coordinator's global state.
func (c *Coordinator) manifest() shard.Manifest {
	m := shard.Manifest{
		Version:          shard.CheckpointVersion,
		MeshDim:          2,
		MeshSide:         c.spec.Side,
		MeshWrap:         c.spec.Wrap,
		PolicyName:       c.polName,
		Seed:             c.spec.Seed,
		MaxSteps:         c.spec.MaxSteps,
		Validation:       c.spec.Validation,
		DetectLive:       c.spec.DetectLivelock,
		Grid:             c.grid.String(),
		Time:             c.time,
		LastArrival:      c.lastArrival,
		NextID:           c.nextID,
		Live:             c.live,
		Livelocked:       c.livelock,
		Shards:           c.grid.Count(),
		TotalDeflections: c.totalDeflections,
		TotalHops:        c.totalHops,
		MaxNodeLoad:      c.maxNodeLoad,
		Reroutes:         c.reroutes,
		Recoveries:       c.recoveries,
	}
	if c.seen != nil {
		m.Seen = make([]sim.SeenState, 0, len(c.seen))
		for h, t := range c.seen {
			m.Seen = append(m.Seen, sim.SeenState{Hash: h, Time: t})
		}
		sort.Slice(m.Seen, func(i, j int) bool { return m.Seen[i].Time < m.Seen[j].Time })
	}
	m.Finalized = append([]sim.PacketState(nil), c.finalized...)
	return m
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
func (c *Coordinator) adopt(slots []int) error {
	need := make(map[int]bool, len(slots))
	for _, s := range slots {
		need[s] = true
	}
	deadline := time.Now().Add(c.opts.RejoinTimeout)
	for len(need) > 0 {
		wait := time.Until(deadline)
		if wait <= 0 {
			break
		}
		select {
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
			ws.br = bufio.NewReaderSize(ad.conn, 64<<10)
			ws.lastSeen = time.Now()
			delete(need, slot)
			c.logf("coordinator: worker joined slot %d (shards %v)", slot, ws.owned)
		case <-time.After(wait):
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

func (ws *workerSlot) send(timeout time.Duration, typ byte, payload []byte) error {
	if ws.conn == nil {
		return fmt.Errorf("%w: slot %d has no connection", errWorkerDead, ws.slot)
	}
	ws.conn.SetWriteDeadline(time.Now().Add(timeout))
	return WriteFrame(ws.conn, typ, payload)
}

// awaitFrame reads until the wanted response of (epoch, wantT) arrives.
// Heartbeats refresh liveness; stale frames (duplicates, responses from
// before a recovery, late responses of earlier phases) are skipped; worker
// ERROR frames and transport failures classify via the sentinel errors.
func (c *Coordinator) awaitFrame(ws *workerSlot, wantTyp byte, wantT int, deadline time.Time) ([]byte, error) {
	if ws.conn == nil {
		return nil, fmt.Errorf("%w: slot %d has no connection", errWorkerDead, ws.slot)
	}
	skips := 0
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return nil, errAttemptTimeout
		}
		hbDeadline := ws.lastSeen.Add(c.opts.HeartbeatTimeout)
		if !now.Before(hbDeadline) {
			return nil, fmt.Errorf("%w: slot %d silent for %s", errWorkerDead, ws.slot, now.Sub(ws.lastSeen).Round(time.Millisecond))
		}
		rd := deadline
		if hbDeadline.Before(rd) {
			rd = hbDeadline
		}
		ws.conn.SetReadDeadline(rd)
		typ, payload, err := ReadFrame(ws.br, c.opts.MaxFrame)
		if err != nil {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue // loop re-evaluates attempt deadline vs heartbeat
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

// exchange performs one phase request against one worker with bounded,
// jitter-backoff retries. Retries are safe by construction: workers cache
// their last response per (epoch, step) and resend it, so a request lost to
// the network or a response lost mid-flight is recovered without
// re-executing the phase.
func (c *Coordinator) exchange(ws *workerSlot, reqTyp byte, reqPayload []byte, wantTyp byte, wantT int) ([]byte, *workerFailure) {
	var lastErr error
	for attempt := 1; attempt <= c.opts.MaxRetries+1; attempt++ {
		if attempt > 1 {
			key := fmt.Sprintf("slot-%d", ws.slot)
			time.Sleep(run.BackoffDelay(c.opts.BackoffBase, c.opts.BackoffMax, c.spec.Seed, key, attempt-1))
			c.logf("coordinator: slot %d retry %d after %v", ws.slot, attempt-1, lastErr)
		}
		if err := ws.send(c.opts.StepTimeout, reqTyp, reqPayload); err != nil {
			return nil, &workerFailure{slot: ws.slot, err: err, respawn: true}
		}
		payload, err := c.awaitFrame(ws, wantTyp, wantT, time.Now().Add(c.opts.StepTimeout))
		switch {
		case err == nil:
			return payload, nil
		case errors.Is(err, errAttemptTimeout):
			lastErr = err
			continue
		case errors.Is(err, errFatalWorker):
			return nil, &workerFailure{slot: ws.slot, err: err, fatal: true}
		case errors.Is(err, errNeedsLoad):
			return nil, &workerFailure{slot: ws.slot, err: err}
		default: // dead, corrupt, malformed
			return nil, &workerFailure{slot: ws.slot, err: err, respawn: true}
		}
	}
	return nil, &workerFailure{
		slot:    ws.slot,
		err:     fmt.Errorf("slot %d unresponsive after %d attempts: %w", ws.slot, c.opts.MaxRetries+1, lastErr),
		respawn: true,
	}
}

// fanout runs one phase function against every worker concurrently and
// collects failures ordered by slot.
func (c *Coordinator) fanout(fn func(ws *workerSlot) *workerFailure) []workerFailure {
	var mu sync.Mutex
	var fails []workerFailure
	var wg sync.WaitGroup
	for _, ws := range c.workers {
		wg.Add(1)
		go func(ws *workerSlot) {
			defer wg.Done()
			if f := fn(ws); f != nil {
				mu.Lock()
				fails = append(fails, *f)
				mu.Unlock()
			}
		}(ws)
	}
	wg.Wait()
	sort.Slice(fails, func(i, j int) bool { return fails[i].slot < fails[j].slot })
	return fails
}

// ----- phases ------------------------------------------------------------

// partitionParts splits a checkpoint's live packets by current shard
// ownership, preserving part order then packet order — the exact enqueue
// order shard.Engine's grid-flexible restore uses, which is what keeps a
// rebalanced or differently-sharded resume bit-identical.
func (c *Coordinator) partitionParts(ck *shard.Checkpoint) [][]sim.PacketState {
	parts := make([][]sim.PacketState, c.grid.Count())
	for i := range ck.Parts {
		for j := range ck.Parts[i].Packets {
			ps := ck.Parts[i].Packets[j]
			owner := c.part.Owner(ps.Node)
			parts[owner] = append(parts[owner], ps)
		}
	}
	return parts
}

// phaseLoad pushes a checkpoint's state to every worker: ASSIGN for slots
// whose connection is new (they need the problem definition), then LOAD
// with each owned shard's packets.
func (c *Coordinator) phaseLoad(ck *shard.Checkpoint, assign map[int]bool) []workerFailure {
	parts := c.partitionParts(ck)
	t := ck.Manifest.Time
	return c.fanout(func(ws *workerSlot) *workerFailure {
		if assign[ws.slot] {
			a := msgAssign{
				Epoch: c.epoch, Side: c.spec.Side, Wrap: c.spec.Wrap,
				GridP: c.grid.P, GridQ: c.grid.Q, Policy: c.spec.Policy,
				Seed: c.spec.Seed, Validation: int(c.spec.Validation),
				HashWords: c.livelockable, Owned: ws.owned,
				HeartbeatMillis: c.opts.HeartbeatEvery.Milliseconds(),
			}
			if err := ws.send(c.opts.StepTimeout, mtAssign, a.encode()); err != nil {
				return &workerFailure{slot: ws.slot, err: err, respawn: true}
			}
		}
		l := msgLoad{Epoch: c.epoch, T: t}
		for _, idx := range ws.owned {
			l.Shards = append(l.Shards, shardLoad{Index: idx, Packets: parts[idx]})
		}
		_, f := c.exchange(ws, mtLoad, l.encode(), mtLoaded, t)
		return f
	})
}

// phaseRoute drives the route barrier for step t and returns each slot's
// egress buckets.
func (c *Coordinator) phaseRoute(t int) ([][]shard.Bucket, []workerFailure) {
	results := make([][]shard.Bucket, len(c.workers))
	req := (&msgStep{Epoch: c.epoch, T: t}).encode()
	fails := c.fanout(func(ws *workerSlot) *workerFailure {
		payload, f := c.exchange(ws, mtRoute, req, mtEgress, t)
		if f != nil {
			return f
		}
		m, err := decodeEgress(payload)
		if err != nil {
			return &workerFailure{slot: ws.slot, err: err, respawn: true}
		}
		results[ws.slot] = m.Buckets
		return nil
	})
	return results, fails
}

// phaseApply delivers each slot's ingress buckets and collects the applied
// reports.
func (c *Coordinator) phaseApply(t int, ingress [][]shard.Bucket) ([]msgApplied, []workerFailure) {
	results := make([]msgApplied, len(c.workers))
	fails := c.fanout(func(ws *workerSlot) *workerFailure {
		m := msgEgress{Epoch: c.epoch, T: t, Buckets: ingress[ws.slot]}
		payload, f := c.exchange(ws, mtApply, m.encode(), mtApplied, t)
		if f != nil {
			return f
		}
		ap, err := decodeApplied(payload)
		if err != nil {
			return &workerFailure{slot: ws.slot, err: err, respawn: true}
		}
		results[ws.slot] = ap
		return nil
	})
	return results, fails
}

// collectCheckpoint captures a coordinated checkpoint at the current
// barrier: every worker contributes its shards' parts, the coordinator adds
// the manifest.
func (c *Coordinator) collectCheckpoint() (*shard.Checkpoint, []workerFailure) {
	req := (&msgStep{Epoch: c.epoch, T: c.time}).encode()
	parts := make([]shard.ShardPart, c.grid.Count())
	got := make([]bool, c.grid.Count())
	var mu sync.Mutex
	fails := c.fanout(func(ws *workerSlot) *workerFailure {
		payload, f := c.exchange(ws, mtCkpt, req, mtParts, c.time)
		if f != nil {
			return f
		}
		m, err := decodeParts(payload)
		if err != nil {
			return &workerFailure{slot: ws.slot, err: err, respawn: true}
		}
		mu.Lock()
		defer mu.Unlock()
		for i := range m.Parts {
			idx := m.Parts[i].Index
			if idx < 0 || idx >= len(parts) || m.Parts[i].Time != c.time {
				return &workerFailure{slot: ws.slot, err: fmt.Errorf("%w: bad part %d@%d", ErrBadMessage, idx, m.Parts[i].Time), respawn: true}
			}
			parts[idx] = m.Parts[i]
			got[idx] = true
		}
		return nil
	})
	if len(fails) > 0 {
		return nil, fails
	}
	for idx, ok := range got {
		if !ok {
			return nil, []workerFailure{{slot: c.workerOfShard[idx], err: fmt.Errorf("%w: shard %d part missing", ErrBadMessage, idx), respawn: true}}
		}
	}
	return &shard.Checkpoint{Manifest: c.manifest(), Parts: parts}, nil
}

// ----- hashing -----------------------------------------------------------

// foldRows walks the global row order — shard rows ascending, mesh rows
// within the band, shard columns left to right — calling emit for each
// (shard, mesh row) pair until emit's cursor exhausts that shard's stream.
// It reproduces exactly the visit order of shard.Engine.stateHash.
func (c *Coordinator) foldRows(emit func(shardIdx, y int)) {
	for r := 0; r < c.grid.Q; r++ {
		_, y0, _, bh := c.part.Bounds(r * c.grid.P)
		for y := y0; y < y0+bh; y++ {
			for col := 0; col < c.grid.P; col++ {
				emit(r*c.grid.P+col, y)
			}
		}
	}
}

// foldBlocks folds per-shard hash-word streams (each in ascending node
// order) into the global configuration hash.
func (c *Coordinator) foldBlocks(blocks [][]uint64) uint64 {
	h := sim.ConfigHashSeed
	cur := make([]int, len(blocks))
	side := c.spec.Side
	c.foldRows(func(si, y int) {
		b := blocks[si]
		i := cur[si]
		for i+1 < len(b) && int(b[i+1]>>32)/side == y {
			h = sim.ConfigHashFold(h, b[i], b[i+1])
			i += 2
		}
		cur[si] = i
	})
	return h
}

// foldParts is foldBlocks over checkpoint parts: the end-of-run state hash
// is computed from the final parts so it exists even when livelock
// detection (and therefore per-step word shipping) is off.
func (c *Coordinator) foldParts(parts []shard.ShardPart) uint64 {
	h := sim.ConfigHashSeed
	cur := make([]int, len(parts))
	side := c.spec.Side
	c.foldRows(func(si, y int) {
		pkts := parts[si].Packets
		i := cur[si]
		for i < len(pkts) && int(pkts[i].Node)/side == y {
			p := pkts[i].Packet()
			id, pos := sim.ConfigHashPacketWords(p)
			h = sim.ConfigHashFold(h, id, pos)
			i++
		}
		cur[si] = i
	})
	return h
}

// ----- run loop ----------------------------------------------------------

func (c *Coordinator) runnable() bool {
	return c.live > 0 && !c.livelock && c.time < c.spec.MaxSteps
}

// step drives one barrier: route everywhere, regroup the egress buckets by
// receiving worker, apply everywhere, then fold the applied reports into
// the global state. Any failure leaves the global state untouched — the
// step either completes on every worker or is re-executed from a rollback.
func (c *Coordinator) step() []workerFailure {
	t := c.time
	egress, fails := c.phaseRoute(t)
	if len(fails) > 0 {
		return fails
	}
	ingress := make([][]shard.Bucket, len(c.workers))
	for slot := range egress {
		for _, b := range egress[slot] {
			dst := c.workerOfShard[b.To]
			ingress[dst] = append(ingress[dst], b)
		}
	}
	applied, fails := c.phaseApply(t, ingress)
	if len(fails) > 0 {
		return fails
	}

	c.time = t + 1
	var blocks [][]uint64
	if c.livelockable {
		blocks = make([][]uint64, c.grid.Count())
	}
	for slot := range applied {
		ap := &applied[slot]
		c.totalHops += ap.Hops
		c.totalDeflections += ap.Deflections
		c.live -= ap.Arrivals
		if ap.LastArrival > c.lastArrival {
			c.lastArrival = ap.LastArrival
		}
		c.reroutes += ap.Reroutes
		if ap.MaxNodeLoad > c.maxNodeLoad {
			c.maxNodeLoad = ap.MaxNodeLoad
		}
		c.finalized = append(c.finalized, ap.Finalized...)
		for i := range ap.Blocks {
			if b := &ap.Blocks[i]; b.Shard >= 0 && b.Shard < len(blocks) {
				blocks[b.Shard] = b.Words
			}
		}
	}
	if c.StepHook != nil {
		c.StepHook(c.time, c.live)
	}
	if c.livelockable && c.live > 0 {
		h := c.foldBlocks(blocks)
		if c.HashHook != nil {
			c.HashHook(c.time, h)
		}
		if _, dup := c.seen[h]; dup {
			c.livelock = true
		} else {
			c.seen[h] = c.time
		}
	}
	return nil
}

// ensureWorkers spawns (when a spawner is configured) and adopts workers
// for the given slots.
func (c *Coordinator) ensureWorkers(slots []int) error {
	if c.opts.Spawn != nil {
		for _, slot := range slots {
			proc, err := c.opts.Spawn(slot, c.Addr())
			if err != nil {
				return fmt.Errorf("%w: spawn slot %d: %v", ErrRunLost, slot, err)
			}
			c.workers[slot].proc = proc
		}
	}
	return c.adopt(slots)
}

// recoverFrom is the rejoin state machine: tear down failed workers,
// re-spawn or await their replacements, bump the epoch so every in-flight
// frame from before the failure is recognizably stale, reload every worker
// (failed and healthy alike) from the last coordinated checkpoint, and roll
// the coordinator's own state back to its manifest. It loops until a load
// completes cleanly or the recovery budget is exhausted.
func (c *Coordinator) recoverFrom(fails []workerFailure) error {
	for {
		for _, f := range fails {
			if f.fatal {
				return f.err
			}
		}
		c.recoveries++
		if c.recoveries > c.opts.MaxRecoveries {
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
			c.logf("coordinator: worker slot %d failed (recovery %d/%d): %v", f.slot, c.recoveries, c.opts.MaxRecoveries, f.err)
			if !f.respawn {
				continue
			}
			ws := c.workers[f.slot]
			if ws.conn != nil {
				ws.conn.Close()
				ws.conn = nil
				ws.br = nil
			}
			if ws.proc != nil {
				ws.proc.Stop()
				ws.proc = nil
			}
			respawn = append(respawn, f.slot)
			newConn[f.slot] = true
		}
		c.epoch++
		if len(respawn) > 0 {
			if err := c.ensureWorkers(respawn); err != nil {
				return err
			}
		}
		c.logf("coordinator: rolling back to checkpoint of step %d (epoch %d)", c.lastCK.Manifest.Time, c.epoch)
		fails = c.phaseLoad(c.lastCK, newConn)
		if len(fails) == 0 {
			c.restoreState(&c.lastCK.Manifest)
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

	// Bring up the fleet and distribute the starting state.
	slots := make([]int, len(c.workers))
	assign := make(map[int]bool, len(c.workers))
	for i := range slots {
		slots[i] = i
		assign[i] = true
	}
	c.epoch = 1
	if err := c.ensureWorkers(slots); err != nil {
		return nil, err
	}
	if fails := c.phaseLoad(c.lastCK, assign); len(fails) > 0 {
		if err := c.recoverFrom(fails); err != nil {
			return nil, err
		}
	}

	wrote := false
	save := func(ck *shard.Checkpoint) error {
		if c.opts.CheckpointDir == "" {
			return nil
		}
		if err := shard.SaveDir(c.opts.CheckpointDir, ck, c.opts.CheckpointFormat); err != nil {
			return err
		}
		wrote = true
		return nil
	}
	sinceCK, sinceDisk := 0, 0
	var runErr error
	for {
		for c.runnable() && !stop.Stopped() {
			if fails := c.step(); len(fails) > 0 {
				if err := c.recoverFrom(fails); err != nil {
					return nil, err
				}
				sinceCK = 0
				continue
			}
			sinceCK++
			sinceDisk++
			if sinceCK >= c.opts.CheckpointEvery {
				ck, fails := c.collectCheckpoint()
				if len(fails) > 0 {
					if err := c.recoverFrom(fails); err != nil {
						return nil, err
					}
					sinceCK = 0
					continue
				}
				if err := save(ck); err != nil {
					return nil, fmt.Errorf("dshard: checkpoint save: %w", err)
				}
				c.lastCK = ck
				sinceCK, sinceDisk = 0, 0
			}
		}
		runErr = nil
		if c.runnable() { // stopped early: resolve the cause
			if runErr = sim.StopCause(ctx); runErr == nil {
				c.deadlineExceeded = true
			}
		}
		// Capture the final state: the run's state hash (for parity and
		// fingerprinting) and, when stopping early with unsaved progress,
		// the resume checkpoint. A worker dying between the last step and
		// this capture must not lose the run either: recover and loop back
		// — the rollback reopens the step loop, which re-runs to the end.
		ck, fails := c.collectCheckpoint()
		if len(fails) == 0 {
			c.finalHash = c.foldParts(ck.Parts)
			// An early stop persists its progress; even one cancelled before
			// the first step saves the initial state — that is the job itself.
			if c.runnable() && (sinceDisk > 0 || !wrote) {
				if err := save(ck); err != nil && runErr == nil {
					runErr = fmt.Errorf("dshard: final checkpoint save: %w", err)
				}
			}
			break
		}
		if err := c.recoverFrom(fails); err != nil {
			c.logf("coordinator: final state capture failed: %v", err)
			break
		}
		sinceCK = 0
	}
	c.shutdownWorkers()
	return c.result(), runErr
}

func (c *Coordinator) result() *sim.Result {
	return &sim.Result{
		Steps:            c.lastArrival,
		Delivered:        c.total - c.live,
		Total:            c.total,
		Livelocked:       c.livelock,
		HitMaxSteps:      c.live > 0 && !c.livelock && !c.deadlineExceeded && c.time >= c.spec.MaxSteps,
		TotalDeflections: c.totalDeflections,
		TotalHops:        c.totalHops,
		MaxNodeLoad:      c.maxNodeLoad,
		Reroutes:         c.reroutes,
		DeadlineExceeded: c.deadlineExceeded,
	}
}

// shutdownWorkers asks every worker to exit cleanly, then severs.
func (c *Coordinator) shutdownWorkers() {
	for _, ws := range c.workers {
		if ws.conn != nil {
			m := msgStep{Epoch: c.epoch}
			ws.send(time.Second, mtShutdown, m.encode())
		}
	}
	for _, ws := range c.workers {
		if ws.conn != nil {
			ws.conn.Close()
			ws.conn = nil
		}
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
