package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/dshard"
	"hotpotato/internal/mesh"
	"hotpotato/internal/rng"
	"hotpotato/internal/server"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
)

// runStats are the simulated statistics of one complete run. The simulator
// is deterministic, so they repeat exactly: across surfaces for one
// instance, and against golden.json for the default seed.
type runStats struct {
	Steps            int    `json:"steps"`
	Delivered        int    `json:"delivered"`
	Total            int    `json:"total"`
	TotalHops        int64  `json:"total_hops"`
	TotalDeflections int64  `json:"total_deflections"`
	MaxNodeLoad      int    `json:"max_node_load"`
	FinalHash        string `json:"final_state_hash"`
}

func statsOf(r *sim.Result, hash string) runStats {
	return runStats{r.Steps, r.Delivered, r.Total, r.TotalHops, r.TotalDeflections, r.MaxNodeLoad, hash}
}

// fingerprint is hotpotatod's final_state_hash (server.resultFingerprint):
// the configuration hash folded with the movement counters. It is repeated
// here because the daemon reports it and the engines do not, and the point
// of the comparison is that a library run and a daemon job end in the same
// state.
func fingerprint(stateHash uint64, p sim.Progress) string {
	return fmt.Sprintf("%016x", uint64(rng.Mix(int64(stateHash), int64(p.Time), int64(p.Delivered),
		int64(p.Dropped), int64(p.Absorbed), p.TotalHops, p.TotalDeflections, int64(p.MaxNodeLoad))))
}

// instance is a family made concrete for one harness seed: the mesh, the
// job seeds, and (for resuming families) the checkpoints jobs start from.
type instance struct {
	fam   *family
	mesh  *mesh.Mesh
	seeds []int64
	// dir holds what set-up writes: checkpoints and the dshard socket.
	dir string
	// ckpt[i] is the checkpoint job seed i resumes; baseHops[i] the hops
	// already in it, which a resumed job did not do.
	ckpt     []string
	baseHops []int64
	// grid is the shard decomposition library runs use.
	grid shard.Grid
	// batch, when set, replaces the family's traffic with a fixed packet
	// population given as (source, destination) pairs. The per-layer pass
	// uses it to give dshard, which rejects arrivals, the mid-run
	// population of an arrival-driven family.
	batch [][2]mesh.NodeID
}

func newMesh(js server.JobSpec) (*mesh.Mesh, error) {
	if js.Torus {
		return mesh.NewTorus(2, js.Side)
	}
	return mesh.New(2, js.Side)
}

// newInstance is a workload's set-up on the library side: mesh and routing
// tables, job seeds, and the pre-made checkpoints of a resuming family.
func newInstance(f *family, seed int64, dir string) (*instance, error) {
	in := &instance{fam: f, dir: dir, grid: shard.Grid{P: gridP, Q: gridQ}}
	var err error
	if in.mesh, err = newMesh(f.spec); err != nil {
		return nil, err
	}
	in.mesh.Tables()
	for i := 0; i < f.seeds; i++ {
		in.seeds = append(in.seeds, seed*1000+int64(i)+1)
	}
	if f.resumeAt > 0 {
		for _, s := range in.seeds {
			js := f.spec
			js.Seed = s
			pkts, err := in.buildPackets(js, in.mesh)
			if err != nil {
				return nil, err
			}
			e, err := buildSim(js, in.mesh, pkts, nil)
			if err != nil {
				return nil, err
			}
			for e.Time() < f.resumeAt {
				if err := e.Step(); err != nil {
					return nil, err
				}
			}
			snap, err := e.Snapshot()
			if err != nil {
				return nil, err
			}
			path := filepath.Join(dir, fmt.Sprintf("seed%d.hpck", s))
			if err := checkpoint.Save(path, snap, checkpoint.Binary); err != nil {
				return nil, err
			}
			in.ckpt = append(in.ckpt, path)
			in.baseHops = append(in.baseHops, snap.TotalHops)
		}
	}
	return in, nil
}

// jobSpec is the job for seed index i, as submitted to the daemon and as
// built in-process.
func (in *instance) jobSpec(i int) server.JobSpec {
	js := in.fam.spec
	js.Seed = in.seeds[i]
	if in.ckpt != nil {
		js.ResumeFrom = in.ckpt[i]
	}
	return js
}

// work is the hops a job of seed index i performs when it ends with total
// hops: a resumed job does not redo what its checkpoint already holds.
func (in *instance) work(i int, js server.JobSpec, total int64) int64 {
	if js.ResumeFrom != "" {
		return total - in.baseHops[i]
	}
	return total
}

func (in *instance) buildPackets(js server.JobSpec, m *mesh.Mesh) ([]*sim.Packet, error) {
	if js.ResumeFrom != "" {
		return nil, nil // a resumed job takes its packets from the snapshot
	}
	if in.batch != nil {
		pkts := make([]*sim.Packet, len(in.batch))
		for id, sd := range in.batch {
			pkts[id] = sim.NewPacket(id, sd[0], sd[1])
		}
		return pkts, nil
	}
	return spec.BuildWorkload(js.Workload, m, js.K, rand.New(rand.NewSource(js.Seed)))
}

// engineOptions mirrors server.JobSpec.buildEngine: the workload is drawn
// from Seed and the engine runs with Seed+1, so a library run and a daemon
// job of one spec are the same run.
func engineOptions(js server.JobSpec) (sim.Policy, sim.Options, error) {
	pol, err := spec.NewPolicy(js.Policy)
	if err != nil {
		return nil, sim.Options{}, err
	}
	lvl, err := spec.ParseValidation(js.Validation)
	if err != nil {
		return nil, sim.Options{}, err
	}
	return pol, sim.Options{Seed: js.Seed + 1, MaxSteps: js.MaxSteps, Validation: lvl, DetectLivelock: !js.NoLivelockDetect}, nil
}

// injectorWrap, when non-nil, stands between an engine and its traffic
// source; the traced pass uses it to time the traffic layer.
type injectorWrap func(sim.Injector) sim.Injector

func installArrivals(js server.JobSpec, m *mesh.Mesh, wrap injectorWrap, set func(sim.Injector)) error {
	src, err := spec.BuildArrivals(js.Workload.Arrivals, m)
	if err != nil || src == nil {
		return err
	}
	if wrap != nil {
		set(wrap(src))
	} else {
		set(src)
	}
	return nil
}

// buildSim builds a ready-to-run single engine.
func buildSim(js server.JobSpec, m *mesh.Mesh, pkts []*sim.Packet, wrap injectorWrap) (*sim.Engine, error) {
	pol, opts, err := engineOptions(js)
	if err != nil {
		return nil, err
	}
	e, err := sim.New(m, pol, pkts, opts)
	if err != nil {
		return nil, err
	}
	if err := installArrivals(js, m, wrap, e.SetInjector); err != nil {
		return nil, err
	}
	if js.ResumeFrom != "" {
		snap, err := checkpoint.Load(js.ResumeFrom)
		if err != nil {
			return nil, err
		}
		if err := e.Restore(snap); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func buildShard(js server.JobSpec, m *mesh.Mesh, pkts []*sim.Packet, grid shard.Grid, wrap injectorWrap) (*shard.Engine, error) {
	pol, opts, err := engineOptions(js)
	if err != nil {
		return nil, err
	}
	e, err := shard.New(m, pol, pkts, shard.Options{Grid: grid, Seed: opts.Seed, MaxSteps: opts.MaxSteps,
		Validation: opts.Validation, DetectLivelock: opts.DetectLivelock})
	if err != nil {
		return nil, err
	}
	if err := installArrivals(js, m, wrap, e.SetInjector); err != nil {
		e.Close()
		return nil, err
	}
	return e, nil
}

const distToken = "bench"

func buildDshard(js server.JobSpec, pkts []*sim.Packet, grid shard.Grid, sock string) (*dshard.Coordinator, error) {
	_, opts, err := engineOptions(js)
	if err != nil {
		return nil, err
	}
	return dshard.New(dshard.Spec{
		Side: js.Side, Wrap: js.Torus, Policy: js.Policy, Grid: grid,
		Seed: opts.Seed, MaxSteps: opts.MaxSteps, Validation: opts.Validation, DetectLivelock: opts.DetectLivelock,
	}, pkts, dshard.Options{
		Workers:  distWorkers,
		Listen:   sock,
		Token:    distToken,
		Policies: spec.NewPolicy,
		Spawn:    dshard.InProcessSpawner(dshard.WorkerOptions{Token: distToken, Policies: spec.NewPolicy}),
	})
}

// engine is what an operation needs of the two in-process engines,
// sim.Engine and shard.Engine: stepping by hand for the traced pass, Run
// for the result, and the final state for the fingerprint.
type engine interface {
	Step() error
	Live() int
	Time() int
	Livelocked() bool
	Run() (*sim.Result, error)
	StateHash() uint64
	Progress() sim.Progress
	Close()
}

// timedInjector wraps the run's injector so the time inside the traffic
// layer is measured from outside it.
type timedInjector struct {
	inner  sim.Injector
	tr     *tracer
	op     int
	parent int
}

func (ti *timedInjector) Inject(t int, host sim.InjectorHost, r *rand.Rand) []*sim.Packet {
	i := ti.tr.begin("traffic.inject", ti.op, ti.parent)
	p := ti.inner.Inject(t, host, r)
	ti.tr.end(i)
	return p
}

func (ti *timedInjector) Exhausted(t int) bool { return ti.inner.Exhausted(t) }

// stepTraced is Run's loop with a span around every Step. The stop
// condition is the engines' own (live packets or a live injector, no
// livelock, budget left). It counts steps, and steps begun with no packet
// in the network, under the span's name.
func stepTraced(e engine, inj *timedInjector, maxSteps int, tr *tracer, name string, op, parent int) error {
	if maxSteps == 0 {
		maxSteps = sim.DefaultMaxSteps
	}
	for (e.Live() > 0 || (inj != nil && !inj.Exhausted(e.Time()))) && !e.Livelocked() && e.Time() < maxSteps {
		tr.count(name+".n", 1)
		if e.Live() == 0 {
			tr.count(name+".idle", 1)
		}
		i := tr.begin(name, op, parent)
		if inj != nil {
			inj.parent = i
		}
		err := e.Step()
		tr.end(i)
		if err != nil {
			return err
		}
	}
	return nil
}

// opSample is one completed operation: which seed it ran, the simulated
// statistics it ended with, the simulated work it did, and how long the
// caller waited.
type opSample struct {
	seedIdx int
	stats   runStats
	hops    int64
	wall    time.Duration
}

// sourceCounts is what a traffic source reports about itself.
type sourceCounts interface {
	Generated() int
	Injected() int
	MaxBacklog() int
}

// engineOp performs one complete run of seed index i on a library surface.
// The timed part is sim.New (or shard.New, dshard.New) through Run's
// return, plus mesh and workload construction when the family puts them on
// the clock. With a tracer the run is stepped by hand inside spans;
// without one it is a plain Run.
func (in *instance) engineOp(surf surface, i int, tr *tracer, op int) (opSample, error) {
	js := in.jobSpec(i)
	if surf != surfSim {
		js.ResumeFrom = "" // shard and dshard restore their own checkpoint format; they run from step 0
	}
	if in.batch != nil {
		js.Workload.Arrivals = nil
	}
	m := in.mesh
	var pkts []*sim.Packet
	var err error
	if !in.fam.construct {
		if pkts, err = in.buildPackets(js, m); err != nil {
			return opSample{}, err
		}
	}
	root := tr.begin("op."+string(surf), op, -1)
	t0 := time.Now()
	if in.fam.construct {
		s := tr.begin("mesh.new", op, root)
		if m, err = newMesh(js); err != nil {
			return opSample{}, err
		}
		m.Tables()
		tr.end(s)
		s = tr.begin("spec.build_workload", op, root)
		if pkts, err = in.buildPackets(js, m); err != nil {
			return opSample{}, err
		}
		tr.end(s)
	}
	var res *sim.Result
	var hash string
	var inj *timedInjector
	var wrap injectorWrap
	if tr != nil {
		wrap = func(src sim.Injector) sim.Injector {
			inj = &timedInjector{inner: src, tr: tr, op: op}
			return inj
		}
	}
	switch surf {
	case surfSim, surfShard:
		var e engine
		s := tr.begin(string(surf)+".new", op, root)
		if surf == surfSim {
			e, err = buildSim(js, m, pkts, wrap)
		} else {
			e, err = buildShard(js, m, pkts, in.grid, wrap)
		}
		tr.end(s)
		if err != nil {
			return opSample{}, err
		}
		defer e.Close()
		if tr != nil {
			s = tr.begin(string(surf)+".run", op, root)
			err = stepTraced(e, inj, js.MaxSteps, tr, string(surf)+".step", op, s)
			tr.end(s)
			if err != nil {
				return opSample{}, err
			}
		}
		if res, err = e.Run(); err != nil {
			return opSample{}, err
		}
		hash = fingerprint(e.StateHash(), e.Progress())
	case surfDshard:
		s := tr.begin("dshard.new", op, root)
		c, err := buildDshard(js, pkts, in.grid, filepath.Join(in.dir, "d.sock"))
		tr.end(s)
		if err != nil {
			return opSample{}, err
		}
		defer c.Close()
		s = tr.begin("dshard.run", op, root)
		if tr != nil {
			last := t0
			name := "dshard.spawn" // New returns before the workers are up: the first hook marks spawn, handshake, assignment and step 0
			c.StepHook = func(int, int) {
				now := time.Now()
				tr.add(name, op, s, last, now)
				tr.count("dshard.step.n", 1)
				last, name = now, "dshard.step"
			}
		}
		res, err = c.Run(context.Background())
		tr.end(s)
		if err != nil {
			return opSample{}, err
		}
		if n := c.Recoveries(); n != 0 {
			return opSample{}, fmt.Errorf("dshard: %d recoveries in a fault-free run", n)
		}
		hash = fingerprint(c.StateHash(), c.Progress())
	default:
		return opSample{}, fmt.Errorf("engineOp: surface %q is not a library surface", surf)
	}
	wall := time.Since(t0)
	tr.end(root)
	if inj != nil && op == 0 {
		if sc, ok := inj.inner.(sourceCounts); ok {
			tr.set("traffic.generated", int64(sc.Generated()))
			tr.set("traffic.injected", int64(sc.Injected()))
			tr.set("traffic.max_backlog", int64(sc.MaxBacklog()))
		}
	}
	return opSample{seedIdx: i, stats: statsOf(res, hash), hops: in.work(i, js, res.TotalHops), wall: wall}, nil
}
