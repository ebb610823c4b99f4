package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/sim"
)

// CheckpointVersion is the schema version of the sharded checkpoint types.
// It rides inside the HPCK payload (the envelope has its own container
// version) and is enforced on restore.
const CheckpointVersion = 1

// manifestName is the atomic commit point of a checkpoint directory: the
// step's per-shard files are written first into their own subdirectory,
// then the manifest is renamed into place. A crash at any point leaves
// either the previous complete checkpoint or the new one — never a torn
// mix.
const manifestName = "MANIFEST.hpck"

// Manifest is the coordinator's share of a coordinated checkpoint: the
// run configuration (guarded on restore), global progress counters, the
// livelock verdict, and every finalized packet. The per-shard files hold
// only live packets, so the manifest plus the parts reconstruct the full
// packet population.
type Manifest struct {
	Version int `json:"version"`

	// Configuration guards: restoring into a differently-configured engine
	// fails loudly. Grid is recorded for information only — a checkpoint
	// written by a 4x2 run restores into a 2x2 or 1x1 engine (the parts are
	// re-partitioned by owner), which is what lets a resumed job change its
	// decomposition.
	MeshDim    int                 `json:"mesh_dim"`
	MeshSide   int                 `json:"mesh_side"`
	MeshWrap   bool                `json:"mesh_wrap"`
	PolicyName string              `json:"policy"`
	Seed       int64               `json:"seed"`
	MaxSteps   int                 `json:"max_steps"`
	Validation sim.ValidationLevel `json:"validation"`
	DetectLive bool                `json:"detect_livelock"`
	Grid       string              `json:"grid"`

	// Progress.
	Time        int  `json:"time"`
	LastArrival int  `json:"last_arrival"`
	NextID      int  `json:"next_id"`
	Live        int  `json:"live"`
	Livelocked  bool `json:"livelocked"`
	Shards      int  `json:"shards"`

	// Counters.
	TotalDeflections int64 `json:"total_deflections"`
	TotalHops        int64 `json:"total_hops"`
	MaxNodeLoad      int   `json:"max_node_load"`
	Reroutes         int64 `json:"reroutes"`
	Recoveries       int   `json:"recoveries"`

	// Injector state: present iff an injector was installed. InjRNG is the
	// dedicated injection SplitMix64 stream; injectors with internal state
	// (source backlogs, renewal clocks, token buckets) participate via
	// sim.CheckpointableInjector and their opaque bytes ride along here, so
	// a resumed arrival-driven run is bit-identical (mid-burst included).
	HasInjector   bool   `json:"has_injector,omitempty"`
	InjectorState []byte `json:"injector_state,omitempty"`
	InjRNG        uint64 `json:"inj_rng,omitempty"`

	// Seen is the livelock detector's configuration-hash history, sorted by
	// first-seen step for reproducible encodings.
	Seen []sim.SeenState `json:"seen,omitempty"`

	// Finalized holds every packet no longer in the network (arrived), so
	// resumed runs report complete hop/deflection distributions.
	Finalized []sim.PacketState `json:"finalized,omitempty"`

	// StepDir names the subdirectory holding this checkpoint's per-shard
	// files; set by SaveDir, used by LoadDir.
	StepDir string `json:"step_dir,omitempty"`
}

// ShardPart is one shard's share of a coordinated checkpoint: the live
// packets it owned, in queue order over its sorted active nodes — i.e. in
// the exact order a restore must re-enqueue them.
type ShardPart struct {
	Version int               `json:"version"`
	Index   int               `json:"index"`
	Time    int               `json:"time"`
	Packets []sim.PacketState `json:"packets,omitempty"`
}

// Checkpoint is a complete coordinated checkpoint: captured at a step
// barrier, so every shard's part is from the same global time.
type Checkpoint struct {
	Manifest Manifest
	Parts    []ShardPart
}

// ErrBadCheckpoint is returned when a checkpoint cannot be restored into
// the engine — wrong configuration, inconsistent parts, or corrupt state.
var ErrBadCheckpoint = errors.New("shard: invalid checkpoint")

// Checkpoint captures the engine's full state between steps. The capture is
// cheap relative to a step (it copies packet structs, not the mesh or
// tables) and the result is independent of the engine's grid: it can be
// saved with SaveDir, restored into an engine with any decomposition, or
// kept in memory as the rollback point for panic recovery. It fails only
// when an installed CheckpointableInjector cannot serialize its state.
func (e *Engine) Checkpoint() (*Checkpoint, error) {
	m, err := e.Manifest(e.config())
	if err != nil {
		return nil, err
	}
	if e.injector != nil {
		m.InjRNG = e.injSrc.State()
		if ci, ok := e.injector.(sim.CheckpointableInjector); ok {
			if m.InjectorState, err = ci.SnapshotState(); err != nil {
				return nil, fmt.Errorf("shard: checkpoint injector state: %w", err)
			}
		}
	}
	ck := &Checkpoint{Manifest: m, Parts: make([]ShardPart, len(e.shards))}
	for i, w := range e.shards {
		if ck.Parts[i], err = w.node.Part(i, e.time); err != nil {
			return nil, err
		}
	}
	return ck, nil
}

// config is the run configuration the engine's checkpoints record.
func (e *Engine) config() Config {
	return Config{
		Mesh: e.mesh, Policy: e.policy.Name(), Seed: e.opts.Seed, MaxSteps: e.opts.MaxSteps,
		Validation: e.opts.Validation, DetectLivelock: e.opts.DetectLivelock, Grid: e.opts.Grid,
		Injector: e.injector != nil,
	}
}

// part captures the shard's live packets as its checkpoint part for step t,
// in queue order over its ascending active nodes.
func (s *shardState) part(t int) ShardPart {
	part := ShardPart{Version: CheckpointVersion, Index: s.idx, Time: t}
	for _, l := range s.q.Active() {
		for _, p := range s.q.At(int(l)) {
			part.Packets = append(part.Packets, sim.CapturePacket(p))
		}
	}
	return part
}

// Restore loads a checkpoint into a freshly-built engine (no packets, time
// zero) whose mesh, policy, seed and validation settings match the
// checkpoint's manifest. The engine's grid need not match the writer's:
// live packets are re-partitioned by current ownership, and because queue
// order within each node is preserved verbatim from the parts, the resumed
// run is bit-identical to the uninterrupted one regardless of either
// decomposition.
func (e *Engine) Restore(ck *Checkpoint) error {
	if e.time != 0 || e.total != 0 {
		return fmt.Errorf("%w: Restore needs a fresh engine (built with no packets)", ErrBadCheckpoint)
	}
	return e.loadCheckpoint(ck)
}

// Check is the one guard every sharded checkpoint passes before an engine
// loads it — Restore and in-run panic recovery on Engine, and a dshard
// resume. It refuses, as ErrBadCheckpoint: a schema from a later build; a
// configuration other than want's (the step budget and the grid may
// differ); a manifest whose shard count is not its
// part count; a part from another step (a torn checkpoint); a packet off
// the mesh, with an ID at or past NextID, or in the wrong section (a live
// packet that arrived, a finalized one that did not); a live count the
// parts do not carry; and a packet ID that occurs twice anywhere. It does
// not check node capacity: the loader that enqueues does.
func (ck *Checkpoint) Check(want Config) error {
	m := &ck.Manifest
	switch {
	case m.Version > CheckpointVersion:
		return fmt.Errorf("%w: schema v%d, this build reads up to v%d", ErrBadCheckpoint, m.Version, CheckpointVersion)
	case m.MeshDim != want.Mesh.Dim() || m.MeshSide != want.Mesh.Side() || m.MeshWrap != want.Mesh.Wrap():
		return fmt.Errorf("%w: mesh mismatch: checkpoint dim=%d side=%d wrap=%v, engine %s",
			ErrBadCheckpoint, m.MeshDim, m.MeshSide, m.MeshWrap, want.Mesh)
	case m.PolicyName != want.Policy:
		return fmt.Errorf("%w: policy mismatch: checkpoint %q, engine %q", ErrBadCheckpoint, m.PolicyName, want.Policy)
	case m.Seed != want.Seed:
		return fmt.Errorf("%w: seed mismatch: checkpoint %d, engine %d", ErrBadCheckpoint, m.Seed, want.Seed)
	case m.Validation != want.Validation:
		return fmt.Errorf("%w: validation mismatch: checkpoint %d, engine %d", ErrBadCheckpoint, m.Validation, want.Validation)
	case m.DetectLive != want.DetectLivelock:
		return fmt.Errorf("%w: livelock detection mismatch", ErrBadCheckpoint)
	case m.Shards != len(ck.Parts):
		return fmt.Errorf("%w: manifest lists %d shards, checkpoint has %d parts", ErrBadCheckpoint, m.Shards, len(ck.Parts))
	case m.HasInjector != want.Injector:
		return fmt.Errorf("%w: injector installed=%v, checkpoint has_injector=%v", ErrBadCheckpoint, want.Injector, m.HasInjector)
	}
	n := len(m.Finalized)
	for i := range ck.Parts {
		n += len(ck.Parts[i].Packets)
	}
	ids := make([]int, 0, n)
	packet := func(ps *sim.PacketState, live bool) error {
		if err := checkPacketIDs(want.Mesh, ps); err != nil {
			return err
		}
		if ps.ID >= m.NextID {
			return fmt.Errorf("%w: packet id %d >= next id %d", ErrBadCheckpoint, ps.ID, m.NextID)
		}
		if arrived := ps.ArrivedAt >= 0; arrived == live {
			return fmt.Errorf("%w: packet %d in the wrong section (arrived=%v)", ErrBadCheckpoint, ps.ID, arrived)
		}
		ids = append(ids, ps.ID)
		return nil
	}
	for i := range m.Finalized {
		if err := packet(&m.Finalized[i], false); err != nil {
			return err
		}
	}
	for i := range ck.Parts {
		part := &ck.Parts[i]
		if part.Time != m.Time {
			return fmt.Errorf("%w: part %d is from step %d, manifest from step %d (torn checkpoint)",
				ErrBadCheckpoint, part.Index, part.Time, m.Time)
		}
		for j := range part.Packets {
			if err := packet(&part.Packets[j], true); err != nil {
				return err
			}
		}
	}
	if live := n - len(m.Finalized); live != m.Live {
		return fmt.Errorf("%w: manifest says %d live packets, parts carry %d", ErrBadCheckpoint, m.Live, live)
	}
	if id, dup := sim.DuplicateID(ids); dup {
		return fmt.Errorf("%w: packet id %d occurs more than once", ErrBadCheckpoint, id)
	}
	return nil
}

// loadCheckpoint loads the checkpoint once Check has passed it: each
// shard's Node takes its share of the parts re-partitioned to this grid,
// and the ledger and the injector take the manifest. Used by Restore and by
// in-run panic recovery (where the checks hold trivially).
func (e *Engine) loadCheckpoint(ck *Checkpoint) error {
	m := &ck.Manifest
	if err := ck.Check(e.config()); err != nil {
		return err
	}
	for i, pkts := range e.pt.Repartition(ck) {
		if err := e.shards[i].node.LoadShard(i, pkts); err != nil {
			return err
		}
	}
	e.Ledger.Restore(m)
	if m.HasInjector {
		e.injSrc.SetState(m.InjRNG)
		if len(m.InjectorState) > 0 {
			ci, ok := e.injector.(sim.CheckpointableInjector)
			if !ok {
				return fmt.Errorf("%w: checkpoint carries injector state but injector %T cannot restore it", ErrBadCheckpoint, e.injector)
			}
			if err := ci.RestoreState(m.InjectorState); err != nil {
				return fmt.Errorf("shard: restore injector state: %w", err)
			}
		}
	}
	return nil
}

// SaveDir writes the checkpoint into dir (created if missing) with the
// torn-write-safe layout: the per-shard parts go into a step-<t>
// subdirectory, each file written atomically via the checkpoint codec, and
// only then is the manifest atomically renamed into place as the commit
// point. Older step subdirectories are pruned after the commit, so a
// directory holds at most the committed checkpoint plus one in-flight one.
func SaveDir(dir string, ck *Checkpoint, format checkpoint.Format) error {
	stepDir := fmt.Sprintf("step-%010d", ck.Manifest.Time)
	sub := filepath.Join(dir, stepDir)
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return fmt.Errorf("shard: checkpoint dir: %w", err)
	}
	for i := range ck.Parts {
		path := filepath.Join(sub, partName(ck.Parts[i].Index))
		if err := checkpoint.SaveValue(path, &ck.Parts[i], format); err != nil {
			return err
		}
	}
	m := ck.Manifest
	m.StepDir = stepDir
	if err := checkpoint.SaveValue(filepath.Join(dir, manifestName), &m, format); err != nil {
		return err
	}
	// Best-effort prune of superseded step directories.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	for _, ent := range entries {
		if ent.IsDir() && strings.HasPrefix(ent.Name(), "step-") && ent.Name() != stepDir {
			os.RemoveAll(filepath.Join(dir, ent.Name()))
		}
	}
	return nil
}

// HasCheckpoint reports whether dir holds a committed checkpoint — one
// LoadDir would find a manifest for. A directory whose writer died between
// the part files and the manifest rename reads as absent.
func HasCheckpoint(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// LoadDir reads the committed checkpoint from a SaveDir directory. The
// manifest's CRC only proves the bytes are the ones written, not that a
// SaveDir wrote them, so the two fields that steer the loader are checked
// against what SaveDir produces: the shard count must be that of the
// recorded grid, and the step directory must be the one named after the
// manifest's time (never a path that leaves dir).
func LoadDir(dir string) (*Checkpoint, error) {
	var m Manifest
	if err := checkpoint.LoadValue(filepath.Join(dir, manifestName), &m); err != nil {
		return nil, err
	}
	grid, err := ParseGrid(m.Grid)
	if err != nil {
		return nil, fmt.Errorf("%w: manifest grid: %v", ErrBadCheckpoint, err)
	}
	if m.Shards < 1 || m.Shards != grid.Count() {
		return nil, fmt.Errorf("%w: manifest lists %d shards for grid %s", ErrBadCheckpoint, m.Shards, grid)
	}
	stepDir := fmt.Sprintf("step-%010d", m.Time)
	if m.StepDir != "" && m.StepDir != stepDir {
		return nil, fmt.Errorf("%w: manifest step directory %q, want %q", ErrBadCheckpoint, m.StepDir, stepDir)
	}
	// Parts are appended as their files load, so a manifest claiming more
	// shards than exist on disk costs one failed open, not an allocation.
	ck := &Checkpoint{Manifest: m}
	for i := 0; i < m.Shards; i++ {
		path := filepath.Join(dir, stepDir, partName(i))
		var part ShardPart
		if err := checkpoint.LoadValue(path, &part); err != nil {
			return nil, err
		}
		if part.Index != i {
			return nil, fmt.Errorf("%w: %s holds part %d", ErrBadCheckpoint, path, part.Index)
		}
		ck.Parts = append(ck.Parts, part)
	}
	return ck, nil
}

func partName(index int) string { return fmt.Sprintf("shard-%03d.hpck", index) }
