package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"hotpotato/internal/analysis"
	"hotpotato/internal/checkpoint"
	"hotpotato/internal/core"
	"hotpotato/internal/dshard"
	"hotpotato/internal/mesh"
	"hotpotato/internal/server"
	"hotpotato/internal/server/store"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
	"hotpotato/internal/trace"
)

// perLayerMetrics is the traced run's report: one row per layer of the
// repo, measured from outside through public functions. Every workload
// reports all of them, each on its own family's instance; rows a family
// cannot exercise say so here. Counts marked exact repeat between two runs
// of the same code and seed.
func perLayerMetrics() []metric {
	return []metric{
		// mesh, spec, workload: construction, paid once per run or per job.
		{"mesh.new_tables_ms", "ms"},
		{"spec.build_workload_ms", "ms"},
		{"spec.parse_us", "us"},
		// traffic: time inside a wrapping sim.Injector; all 0 on batch
		// families, which install none. The totals are exact.
		{"traffic.inject_us_p50", "us"},
		{"traffic.inject_us_p90", "us"},
		{"traffic.inject_share", "ratio"},
		{"traffic.generated_total", "count"},
		{"traffic.injected_total", "count"},
		{"traffic.max_backlog", "count"},
		// routing: sim.NodeRouter.RouteNode over every occupied node of the
		// family's mid-run configuration.
		{"routing.route_node_ns", "ns"},
		{"routing.route_node_allocs", "count"},
		// sim: the single engine stepped by hand. steps, hops, deflections
		// and idle_step_share are exact.
		{"sim.hops_per_s", "hops/s"},
		{"sim.new_ms", "ms"},
		{"sim.step_us_p50", "us"},
		{"sim.step_us_p90", "us"},
		{"sim.ns_per_hop", "ns"},
		{"sim.cpu_ns_per_hop", "ns"},
		{"sim.allocs_per_step", "count"},
		{"sim.bytes_per_step", "B"},
		{"sim.state_hash_us", "us"},
		{"sim.snapshot_ms", "ms"},
		{"sim.restore_ms", "ms"},
		{"sim.steps", "count"},
		{"sim.hops", "count"},
		{"sim.deflections", "count"},
		{"sim.idle_step_share", "ratio"},
		// core, trace: the paper's observers, on the small_jobs instance
		// whatever the family (the tracker covers 2-D batch problems).
		// p8_violations is exact and must be 0.
		{"core.tracker_overhead_ratio", "ratio"},
		{"core.p8_violations", "count"},
		{"core.bound_slack_min", "ratio"},
		{"trace.verify_ms", "ms"},
		// checkpoint: the mid-run snapshot through the codec and the disk,
		// in both encodings. bytes are exact.
		{"checkpoint.encode_ms.binary", "ms"},
		{"checkpoint.decode_ms.binary", "ms"},
		{"checkpoint.save_ms.binary", "ms"},
		{"checkpoint.load_ms.binary", "ms"},
		{"checkpoint.bytes.binary", "B"},
		{"checkpoint.encode_ms.json", "ms"},
		{"checkpoint.decode_ms.json", "ms"},
		{"checkpoint.save_ms.json", "ms"},
		{"checkpoint.load_ms.json", "ms"},
		{"checkpoint.bytes.json", "B"},
		// shard: the in-process sharded engine, 1x1 (pure sharding
		// overhead) and 2x1, and one shard.Node owning both shards.
		// halo_moves_per_step is exact.
		{"shard.hops_per_s", "hops/s"},
		{"shard.new_ms", "ms"},
		{"shard.1x1_hops_per_s", "hops/s"},
		{"shard.overhead_ratio", "ratio"},
		{"shard.step_us_p50", "us"},
		{"shard.step_us_p90", "us"},
		{"shard.node_route_us", "us"},
		{"shard.node_apply_us", "us"},
		{"shard.halo_moves_per_step", "count"},
		{"shard.allocs_per_step", "count"},
		{"shard.speedup", "ratio"},
		// dshard: two in-process workers over a unix socket. On an
		// arrival-driven family, which dshard rejects, these rows run the
		// family's mid-run population as a batch instance. recoveries is
		// exact and must be 0.
		{"dshard.hops_per_s", "hops/s"},
		{"dshard.spawn_ms", "ms"},
		{"dshard.step_us_p50", "us"},
		{"dshard.step_us_p90", "us"},
		{"dshard.allocs_per_step", "count"},
		{"dshard.bytes_per_step", "B"},
		{"dshard.wire_ratio", "ratio"},
		{"dshard.frame_write_ns_per_kb", "ns"},
		{"dshard.frame_read_ns_per_kb", "ns"},
		{"dshard.recoveries", "count"},
		// server/store: the fsynced WAL. wal_bytes_per_job is exact.
		{"store.append_us_p50", "us"},
		{"store.append_us_p90", "us"},
		{"store.open_replay_ms", "ms"},
		{"store.wal_bytes_per_job", "B"},
		// server: the daemon's own timestamps for the family's job, and
		// the in-process server. rejected_total and stream_events_per_job
		// are exact.
		{"server.queue_wait_ms_p50", "ms"},
		{"server.queue_wait_ms_p90", "ms"},
		{"server.exec_ms_p50", "ms"},
		{"server.client_overhead_ms_p50", "ms"},
		{"server.submit_us_p50", "us"},
		{"server.rejected_total", "count"},
		{"server.stream_events_per_job", "count"},
		{"server.step_overhead_plain", "ratio"},
		{"server.step_overhead_durable", "ratio"},
		// daemon process.
		{"daemon.cpu_ms_per_job", "ms"},
		{"daemon.peak_rss_mb", "MB"},
		{"daemon.boot_ms", "ms"},
		{"daemon.drain_ms", "ms"},
		// harness: validity of the numbers above.
		{"harness.build_s", "s"},
		{"harness.ops_per_s", "1/s"},
		{"harness.op_ms_p50_all", "ms"},
		{"harness.op_ms_p90_all", "ms"},
		{"gen.late_ms_p90", "ms"},
		{"trace.overhead_ratio", "ratio"},
	}
}

// timeN calls f until it has run at least minN times and for at least
// budget, and returns the median duration of one call.
func timeN(minN int, budget time.Duration, f func() error) (time.Duration, error) {
	var ds []float64
	stopAt := time.Now().Add(budget)
	for n := 0; n < minN || time.Now().Before(stopAt); n++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// processCPU is the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass is one traced stretch of library operations with the process-wide
// allocation and CPU counters read before and after it.
type pass struct {
	ops            []opSample
	mallocs, bytes uint64
	cpu            time.Duration
}

func tracedPass(in *instance, surf surface, dur time.Duration, tr *tracer, o *outcome) pass {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := processCPU()
	p := pass{ops: libraryLoop(in, surf, dur, tr, o)}
	p.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&after)
	p.mallocs, p.bytes = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	return p
}

func (p pass) hopsPerS() float64 {
	thr, _ := quietQuartiles(onClock(p.ops), 1)
	return thr
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// midRun builds the family's first job on the single engine, from step 0,
// and steps it to a configuration worth probing: halfway for an
// arrival-driven family (its steady state), an eighth of the way for a
// batch, when paths have mixed but nearly every packet is still in flight.
func midRun(in *instance, steps int) (*sim.Engine, server.JobSpec, error) {
	js := in.jobSpec(0)
	js.ResumeFrom = ""
	pkts, err := in.buildPackets(js, in.mesh)
	if err != nil {
		return nil, js, err
	}
	e, err := buildSim(js, in.mesh, pkts, nil)
	if err != nil {
		return nil, js, err
	}
	stop := steps / 8
	if in.fam.arrivals != "" {
		stop = steps / 2
	}
	for e.Time() < stop {
		if err := e.Step(); err != nil {
			return nil, js, err
		}
	}
	return e, js, nil
}

// tracedRun is the --trace 1 run: it repeats the workload's own operation
// untraced and traced (trace.overhead_ratio), runs every surface of the
// family inside spans, probes each remaining layer directly, fills
// o.layer, and writes the spans to bench/out/trace-<workload>.json.
func tracedRun(cfg runConfig, ev *env, dur time.Duration, o *outcome) error {
	tr := newTracer()
	in, fam, L := ev.in, cfg.w.fam, o.layer
	slice := dur / 8
	probe := dur / 40
	checkOps := func(ops []opSample, refs []runStats) {
		for _, s := range ops {
			if s.stats != refs[s.seedIdx] {
				o.fail("traced run of seed %d: statistics %+v differ from the reference's %+v", in.seeds[s.seedIdx], s.stats, refs[s.seedIdx])
			}
		}
	}

	// Library surfaces, traced. References for shard and dshard runs are
	// the from-scratch statistics, which is what o.refs holds.
	simPass := tracedPass(in, surfSim, slice, tr, o)
	checkOps(simPass.ops, o.refs)
	shardPass := tracedPass(in, surfShard, slice, tr, o)
	checkOps(shardPass.ops, o.refs)
	one := *in
	one.grid = shard.Grid{P: 1, Q: 1}
	onePass := tracedPass(&one, surfShard, slice/2, nil, o)
	checkOps(onePass.ops, o.refs)

	mid, midSpec, err := midRun(in, o.refs[0].Steps)
	if err != nil {
		return err
	}
	defer mid.Close()
	din := in
	if fam.arrivals != "" {
		// dshard rejects arrivals: give it the mid-run population as a
		// batch problem, and hold its runs to each other.
		b := *in
		for _, p := range mid.Packets() {
			if !p.Arrived() && !p.Dropped() {
				b.batch = append(b.batch, [2]mesh.NodeID{p.Node, p.Dst})
			}
		}
		din = &b
	}
	dPass := tracedPass(din, surfDshard, slice, tr, o)
	dShardRef := shardPass
	if din != in {
		dShardRef = tracedPass(din, surfShard, slice/2, nil, o)
		for _, s := range dPass.ops {
			if len(dShardRef.ops) > 0 && s.stats != dShardRef.ops[0].stats {
				o.fail("dshard batch run: statistics %+v differ from shard's %+v", s.stats, dShardRef.ops[0].stats)
			}
		}
	} else {
		checkOps(dPass.ops, o.refs)
	}
	if len(simPass.ops) == 0 || len(shardPass.ops) == 0 || len(dPass.ops) == 0 || len(onePass.ops) == 0 {
		return fmt.Errorf("a traced pass completed no operation: %v", o.problems)
	}

	steps := func(name string) float64 { return float64(max(tr.get(name+".n"), 1)) }
	// quantiles reports the median and p90 of a span's durations under
	// metric_p50 and metric_p90, and how many spans stand behind them.
	quantiles := func(span, metric string) {
		d := tr.durations(span, time.Microsecond)
		L[metric+"_p50"], L[metric+"_p90"], o.samples[metric+"_p90"] = median(d), percentile(d, 0.90), len(d)
	}
	var simHops int64
	for _, s := range simPass.ops {
		simHops += s.hops
	}
	simRate, shardRate, dRate := simPass.hopsPerS(), shardPass.hopsPerS(), dPass.hopsPerS()
	L["sim.hops_per_s"], L["shard.hops_per_s"], L["dshard.hops_per_s"] = simRate, shardRate, dRate
	L["sim.new_ms"] = median(tr.durations("sim.new", time.Millisecond))
	quantiles("sim.step", "sim.step_us")
	L["sim.ns_per_hop"] = ratio(sum(tr.durations("sim.run", time.Nanosecond)), float64(simHops))
	L["sim.cpu_ns_per_hop"] = ratio(float64(simPass.cpu), float64(simHops))
	L["sim.allocs_per_step"] = float64(simPass.mallocs) / steps("sim.step")
	L["sim.bytes_per_step"] = float64(simPass.bytes) / steps("sim.step")
	L["sim.steps"] = float64(o.refs[0].Steps)
	L["sim.hops"] = float64(o.refs[0].TotalHops)
	L["sim.deflections"] = float64(o.refs[0].TotalDeflections)
	L["sim.idle_step_share"] = float64(tr.get("sim.step.idle")) / steps("sim.step")

	quantiles("traffic.inject", "traffic.inject_us")
	// Spans of both traced engines carry the name; the share is taken on
	// self times, which attribute each to the step that caused it.
	self := tr.selfTimes()
	L["traffic.inject_share"] = ratio(float64(self["traffic.inject"]),
		float64(self["traffic.inject"]+self["sim.step"]+self["shard.step"]))
	L["traffic.generated_total"] = float64(tr.get("traffic.generated"))
	L["traffic.injected_total"] = float64(tr.get("traffic.injected"))
	L["traffic.max_backlog"] = float64(tr.get("traffic.max_backlog"))

	L["shard.new_ms"] = median(tr.durations("shard.new", time.Millisecond))
	quantiles("shard.step", "shard.step_us")
	L["shard.allocs_per_step"] = float64(shardPass.mallocs) / steps("shard.step")
	L["shard.1x1_hops_per_s"] = onePass.hopsPerS()
	L["shard.overhead_ratio"] = ratio(simRate, L["shard.1x1_hops_per_s"])
	L["shard.speedup"] = ratio(shardRate, simRate)

	L["dshard.spawn_ms"] = median(tr.durations("dshard.spawn", time.Millisecond))
	quantiles("dshard.step", "dshard.step_us")
	L["dshard.allocs_per_step"] = float64(dPass.mallocs) / steps("dshard.step")
	L["dshard.bytes_per_step"] = float64(dPass.bytes) / steps("dshard.step")
	L["dshard.wire_ratio"] = ratio(dShardRef.hopsPerS(), dRate)
	L["dshard.recoveries"] = 0 // engineOp fails a run that recovered

	for _, f := range []func(*instance, *sim.Engine, server.JobSpec, time.Duration, *tracer, map[string]float64) error{
		probeConstruction, probeRouting, probeSnapshot, probeCheckpoint, probeNode, probeFrames,
	} {
		if err := f(in, mid, midSpec, probe, tr, L); err != nil {
			return err
		}
	}
	if err := probeObservers(cfg.seed, probe, tr, o); err != nil {
		return err
	}
	if err := probeStore(ev.dir, in, probe, tr, o); err != nil {
		return err
	}
	if err := probeServer(ev.dir, in, L["sim.step_us_p50"], tr, o); err != nil {
		return err
	}
	traced, untraced, err := probeDaemon(ev, fam, slice, tr, o)
	if err != nil {
		return err
	}

	// The workload's own operation, untraced against traced, alternating
	// so that machine drift hits both alike. probeDaemon did that for the
	// daemon's closed loop.
	if cfg.w.surf != surfDaemon {
		traced, untraced = nil, nil
		own := in
		if cfg.w.surf == surfDshard {
			own = din
		}
		stopAt := time.Now().Add(slice)
		for n := 0; time.Now().Before(stopAt) || n < 4; n++ {
			t := tr
			if n%2 == 1 {
				t = nil
			}
			s, err := own.engineOp(cfg.w.surf, n/2%len(own.seeds), t, 3_000_000+n)
			if err != nil {
				return err
			}
			if t != nil {
				traced = append(traced, ms(s.wall))
			} else {
				untraced = append(untraced, ms(s.wall))
			}
		}
	}
	L["trace.overhead_ratio"] = ratio(median(traced), median(untraced))
	L["harness.ops_per_s"] = ratio(1000, median(untraced))
	if cfg.w.surf == surfDaemon {
		L["harness.ops_per_s"] *= clients
	} else {
		// The daemon workloads' latency is the open loop's (probeDaemon).
		L["harness.op_ms_p50_all"] = median(untraced)
		L["harness.op_ms_p90_all"] = percentile(untraced, 0.90)
		o.samples["harness.op_ms_p90_all"] = len(untraced)
	}
	if n := o.samples["harness.op_ms_p90_all"]; highestTail(n) < 0.90 {
		cfg.logf("%d latency samples support p%g at most: harness.op_ms_p90_all has fewer than %d samples beyond it in this traced run",
			n, highestTail(n)*100, tailMinBeyond)
	}
	return tr.write(filepath.Join(outDir, "trace-"+cfg.w.name+".json"))
}

// probeConstruction times what a run pays before its first step: the mesh
// and its routing tables, the workload, and parsing the spec.
func probeConstruction(in *instance, _ *sim.Engine, js server.JobSpec, budget time.Duration, tr *tracer, L map[string]float64) error {
	sp := tr.begin("probe.mesh", 0, -1)
	d, err := timeN(3, budget, func() error {
		m, err := newMesh(js)
		if err == nil {
			m.Tables()
		}
		return err
	})
	tr.end(sp)
	if err != nil {
		return err
	}
	L["mesh.new_tables_ms"] = ms(d)
	sp = tr.begin("probe.spec", 0, -1)
	defer tr.end(sp)
	if d, err = timeN(3, budget, func() error {
		_, err := in.buildPackets(js, in.mesh)
		return err
	}); err != nil {
		return err
	}
	L["spec.build_workload_ms"] = ms(d)
	body, err := json.Marshal(js)
	if err != nil {
		return err
	}
	if d, err = timeN(100, budget, func() error {
		var got server.JobSpec
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if _, err := spec.PolicyFactory(got.Policy); err != nil {
			return err
		}
		return got.Workload.Validate()
	}); err != nil {
		return err
	}
	L["spec.parse_us"] = us(d)
	return nil
}

// probeRouting times sim.NodeRouter.RouteNode over every occupied node of
// the mid-run configuration.
func probeRouting(_ *instance, mid *sim.Engine, js server.JobSpec, budget time.Duration, tr *tracer, L map[string]float64) error {
	sp := tr.begin("probe.routing", 0, -1)
	defer tr.end(sp)
	pol, opts, err := engineOptions(js)
	if err != nil {
		return err
	}
	byNode := map[mesh.NodeID][]*sim.Packet{}
	var nodes []mesh.NodeID
	for _, p := range mid.Packets() {
		if p.Arrived() || p.Dropped() {
			continue
		}
		if byNode[p.Node] == nil {
			nodes = append(nodes, p.Node)
		}
		byNode[p.Node] = append(byNode[p.Node], p)
	}
	if len(nodes) == 0 {
		return errors.New("routing probe: the mid-run configuration is empty")
	}
	r := sim.NewNodeRouter(mid.Topology(), pol, opts.Seed, sim.ValidateOff)
	moves := make([]sim.Move, mid.Mesh().DirCount())
	sweep := func() error {
		for _, n := range nodes {
			if err := r.RouteNode(n, mid.Time(), byNode[n], moves[:len(byNode[n])]); err != nil {
				return err
			}
		}
		return nil
	}
	d, err := timeN(5, budget, sweep)
	if err != nil {
		return err
	}
	L["routing.route_node_ns"] = float64(d) / float64(len(nodes))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sweep(); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	L["routing.route_node_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(len(nodes))
	return nil
}

// probeSnapshot times the state hash, Snapshot and Restore of the mid-run
// engine.
func probeSnapshot(in *instance, mid *sim.Engine, js server.JobSpec, budget time.Duration, tr *tracer, L map[string]float64) error {
	sp := tr.begin("probe.snapshot", 0, -1)
	defer tr.end(sp)
	d, err := timeN(5, budget, func() error { mid.StateHash(); return nil })
	if err != nil {
		return err
	}
	L["sim.state_hash_us"] = us(d)
	var snap *sim.Snapshot
	if d, err = timeN(3, budget, func() (err error) { snap, err = mid.Snapshot(); return }); err != nil {
		return err
	}
	L["sim.snapshot_ms"] = ms(d)
	var restore []float64
	for n := 0; n < 3; n++ {
		fresh, err := buildSim(js, in.mesh, nil, nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := fresh.Restore(snap); err != nil {
			return err
		}
		restore = append(restore, ms(time.Since(t0)))
		fresh.Close()
	}
	L["sim.restore_ms"] = median(restore)
	return nil
}

// probeCheckpoint sends the mid-run snapshot through the codec (memory)
// and through Save and Load (fsync and rename included), in both encodings.
func probeCheckpoint(in *instance, mid *sim.Engine, _ server.JobSpec, budget time.Duration, tr *tracer, L map[string]float64) error {
	sp := tr.begin("probe.checkpoint", 0, -1)
	defer tr.end(sp)
	snap, err := mid.Snapshot()
	if err != nil {
		return err
	}
	for name, format := range map[string]checkpoint.Format{"binary": checkpoint.Binary, "json": checkpoint.JSON} {
		var buf bytes.Buffer
		d, err := timeN(3, budget/2, func() error { buf.Reset(); return checkpoint.Write(&buf, snap, format) })
		if err != nil {
			return err
		}
		L["checkpoint.encode_ms."+name] = ms(d)
		L["checkpoint.bytes."+name] = float64(buf.Len())
		data := buf.Bytes()
		if d, err = timeN(3, budget/2, func() error { _, err := checkpoint.Read(bytes.NewReader(data)); return err }); err != nil {
			return err
		}
		L["checkpoint.decode_ms."+name] = ms(d)
		path := filepath.Join(in.dir, "probe-"+name+".hpck")
		if d, err = timeN(3, budget/2, func() error { return checkpoint.Save(path, snap, format) }); err != nil {
			return err
		}
		L["checkpoint.save_ms."+name] = ms(d)
		if d, err = timeN(3, budget/2, func() error { _, err := checkpoint.Load(path); return err }); err != nil {
			return err
		}
		L["checkpoint.load_ms."+name] = ms(d)
	}
	return nil
}

// probeNode drives one shard.Node owning both shards of the 2x1 grid by
// hand from the mid-run configuration: Route, hand the buckets straight
// back, Apply — the step a dshard worker performs, minus the wire.
func probeNode(in *instance, mid *sim.Engine, js server.JobSpec, budget time.Duration, tr *tracer, L map[string]float64) error {
	sp := tr.begin("probe.shard_node", 0, -1)
	defer tr.end(sp)
	pol, opts, err := engineOptions(js)
	if err != nil {
		return err
	}
	grid := shard.Grid{P: gridP, Q: gridQ}
	part, err := shard.NewPartition(in.mesh, grid)
	if err != nil {
		return err
	}
	// LoadShard wants ascending nodes and, within a node, queue order.
	states := make([][]sim.PacketState, grid.Count())
	for id := 0; id < in.mesh.Size(); id++ {
		for _, p := range mid.PacketsAt(mesh.NodeID(id)) {
			states[part.Owner(p.Node)] = append(states[part.Owner(p.Node)], sim.CapturePacket(p))
		}
	}
	node, err := shard.NewNode(in.mesh, pol, grid, []int{0, 1}, opts.Seed, sim.ValidateOff)
	if err != nil {
		return err
	}
	var route, apply []float64
	var halo, nsteps int64
	stopAt := time.Now().Add(budget)
	for rep := 0; rep < 2 || time.Now().Before(stopAt); rep++ {
		for i := range states {
			if err := node.LoadShard(i, states[i]); err != nil {
				return err
			}
		}
		for t := mid.Time(); t < mid.Time()+8 && node.Live() > 0; t++ {
			t0 := time.Now()
			buckets, err := node.Route(t)
			if err != nil {
				return err
			}
			t1 := time.Now()
			if _, err := node.Apply(t, buckets); err != nil {
				return err
			}
			t2 := time.Now()
			route, apply = append(route, us(t1.Sub(t0))), append(apply, us(t2.Sub(t1)))
			if rep == 0 {
				for _, b := range buckets {
					halo += int64(len(b.Moves))
				}
				nsteps++
			}
		}
	}
	L["shard.node_route_us"] = median(route)
	L["shard.node_apply_us"] = median(apply)
	L["shard.halo_moves_per_step"] = ratio(float64(halo), float64(nsteps))
	return nil
}

// probeFrames times the dshard wire framing alone, on a payload the size
// of the mid-run population's share of one halo exchange (at least 1 KiB).
func probeFrames(_ *instance, mid *sim.Engine, _ server.JobSpec, budget time.Duration, tr *tracer, L map[string]float64) error {
	sp := tr.begin("probe.frames", 0, -1)
	defer tr.end(sp)
	payload := make([]byte, max(1024, 16*mid.Live()/mid.Mesh().Side()))
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	kb := float64(len(payload)) / 1024
	var buf bytes.Buffer
	d, err := timeN(100, budget/2, func() error { buf.Reset(); return dshard.WriteFrame(&buf, 1, payload) })
	if err != nil {
		return err
	}
	L["dshard.frame_write_ns_per_kb"] = float64(d) / kb
	frame := append([]byte(nil), buf.Bytes()...)
	if d, err = timeN(100, budget/2, func() error {
		_, _, err := dshard.ReadFrame(bytes.NewReader(frame), 0)
		return err
	}); err != nil {
		return err
	}
	L["dshard.frame_read_ns_per_kb"] = float64(d) / kb
	return nil
}

// probeObservers runs the paper's observers on the small_jobs instance:
// the Property 8 tracker (cost when on, violations, slack to Theorem 20's
// bound) and the engine-independent trace verifier.
func probeObservers(seed int64, budget time.Duration, tr *tracer, o *outcome) error {
	sp := tr.begin("probe.observers", 0, -1)
	defer tr.end(sp)
	var small *family
	for _, f := range families() {
		if f.name == "small_jobs" {
			small = f
		}
	}
	in, err := newInstance(small, seed, "")
	if err != nil {
		return err
	}
	type observed struct {
		violations int
		slack      float64
		rec        *trace.Recorder
	}
	runOnce := func(i int, track, record bool) (time.Duration, observed, error) {
		js := in.jobSpec(i)
		pkts, err := in.buildPackets(js, in.mesh)
		if err != nil {
			return 0, observed{}, err
		}
		e, err := buildSim(js, in.mesh, pkts, nil)
		if err != nil {
			return 0, observed{}, err
		}
		defer e.Close()
		var tk *core.Tracker
		var ob observed
		if track {
			tk = core.NewTracker(in.mesh, pkts, core.TrackerOptions{})
			e.AddObserver(tk)
		}
		if record {
			ob.rec = trace.NewRecorder(in.mesh, pkts)
			e.AddObserver(ob.rec)
		}
		t0 := time.Now()
		res, err := e.Run()
		took := time.Since(t0)
		if err != nil {
			return 0, observed{}, err
		}
		if tk != nil {
			ob.violations = tk.Violations().Property8
			ob.slack = float64(res.Steps) / analysis.Theorem20Bound(js.Side, res.Total)
		}
		return took, ob, nil
	}
	var plain, tracked []float64
	violations, slack := 0, 0.0
	stopAt := time.Now().Add(2 * budget)
	for n := 0; n < len(in.seeds) || time.Now().Before(stopAt); n++ {
		i := n % len(in.seeds)
		a, _, err := runOnce(i, false, false)
		if err != nil {
			return err
		}
		b, ob, err := runOnce(i, true, false)
		if err != nil {
			return err
		}
		plain, tracked = append(plain, float64(a)), append(tracked, float64(b))
		if n < len(in.seeds) {
			violations += ob.violations
			slack = max(slack, ob.slack)
		}
	}
	o.layer["core.tracker_overhead_ratio"] = ratio(median(tracked), median(plain))
	o.layer["core.p8_violations"] = float64(violations)
	// Steps over the bound, at the job seed that came closest to it.
	o.layer["core.bound_slack_min"] = slack
	o.attempted++
	if violations != 0 {
		o.fail("Property 8 violated %d times on the small_jobs instance", violations)
	}
	_, ob, err := runOnce(0, false, true)
	if err != nil {
		return err
	}
	t := ob.rec.Trace()
	d, err := timeN(3, budget, func() error { _, err := t.Verify(true); return err })
	if err != nil {
		o.attempted++
		o.fail("trace verifier: %v", err)
	}
	o.layer["trace.verify_ms"] = ms(d)
	return nil
}

// probeStore appends the three records of one job's life to a fresh
// fsynced WAL, many times, then re-opens a 15 000-record WAL (the read
// side: what a restart replays).
func probeStore(dir string, in *instance, budget time.Duration, tr *tracer, o *outcome) error {
	L := o.layer
	sp := tr.begin("probe.store", 0, -1)
	defer tr.end(sp)
	specJSON, err := json.Marshal(in.jobSpec(0))
	if err != nil {
		return err
	}
	resJSON, _ := json.Marshal(sim.Result{Steps: 1})
	life := func(id string) []store.Record {
		return []store.Record{
			{Job: id, Op: store.OpAccepted, Tenant: "default", Spec: specJSON},
			{Job: id, Op: store.OpRunning, Attempt: 1},
			{Job: id, Op: store.OpDone, Result: resJSON, FinalHash: 1},
		}
	}
	path := filepath.Join(dir, "probe.wal")
	st, _, err := store.Open(path)
	if err != nil {
		return err
	}
	var appends []float64
	jobs := 0
	stopAt := time.Now().Add(2 * budget)
	for jobs < 20 || time.Now().Before(stopAt) {
		for _, rec := range life(fmt.Sprintf("j%06d", jobs+1)) {
			s := tr.begin("store.append", jobs, sp)
			t0 := time.Now()
			err := st.Append(rec)
			appends = append(appends, us(time.Since(t0)))
			tr.end(s)
			if err != nil {
				return err
			}
		}
		jobs++
	}
	if err := st.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	header, body, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		return errors.New("store probe: WAL without a header line")
	}
	o.samples["store.append_us_p90"] = len(appends)
	L["store.append_us_p50"] = median(appends)
	L["store.append_us_p90"] = percentile(appends, 0.90)
	L["store.wal_bytes_per_job"] = float64(len(body)) / float64(jobs)

	// The WAL to replay is framed here, not appended: replayJobs lives
	// through Append would cost 3 fsyncs each. The line format is the
	// store's documented on-disk format, and Open checks every line.
	var buf bytes.Buffer
	buf.Write(header)
	buf.WriteByte('\n')
	seq := int64(0)
	for j := 0; j < replayJobs; j++ {
		for _, rec := range life(fmt.Sprintf("j%06d", j+1)) {
			seq++
			rec.Seq, rec.UnixMS = seq, 1
			payload, err := json.Marshal(rec)
			if err != nil {
				return err
			}
			fmt.Fprintf(&buf, "%08x %s\n", crc32.ChecksumIEEE(payload), payload)
		}
	}
	big := filepath.Join(dir, "replay.wal")
	if err := os.WriteFile(big, buf.Bytes(), 0o644); err != nil {
		return err
	}
	s := tr.begin("store.open", 0, sp)
	t0 := time.Now()
	st2, rec, err := store.Open(big)
	took := time.Since(t0)
	tr.end(s)
	if err != nil {
		return err
	}
	defer st2.Close()
	if len(rec.Jobs) != replayJobs || len(rec.Pending()) != 0 {
		return fmt.Errorf("store probe: replay found %d jobs (%d pending), wrote %d finished ones",
			len(rec.Jobs), len(rec.Pending()), replayJobs)
	}
	L["store.open_replay_ms"] = ms(took)
	return nil
}

// replayJobs finished jobs make the 15 000-record WAL the store probe
// re-opens.
const replayJobs = 5000

// probeServer measures the in-process server: Submit alone, and the
// per-step cost of the family's job without and with the WAL and periodic
// checkpoints, over the single engine's step (ladder rung e).
func probeServer(dir string, in *instance, simStepUS float64, tr *tracer, o *outcome) error {
	sp := tr.begin("probe.server", 0, -1)
	defer tr.end(sp)
	steps := float64(max(o.refs[0].Steps, 1))
	for name, durable := range map[string]bool{"server.step_overhead_plain": false, "server.step_overhead_durable": true} {
		cfg := server.Config{Workers: 1, QueueDepth: daemonQueue}
		if durable {
			sub := filepath.Join(dir, "inproc")
			if err := os.MkdirAll(filepath.Join(sub, "ckpt"), 0o755); err != nil {
				return err
			}
			cfg.WALPath, cfg.CheckpointDir = filepath.Join(sub, "jobs.wal"), filepath.Join(sub, "ckpt")
			cfg.CheckpointEvery = max(in.fam.ckptEvery, 8)
		}
		srv, err := server.New(cfg)
		if err != nil {
			return err
		}
		srv.Start()
		var walls, submits []float64
		for n := 0; n < 5; n++ {
			js := in.jobSpec(n % len(in.seeds))
			js.ResumeFrom = ""
			s := tr.begin("server.submit", n, sp)
			t0 := time.Now()
			j, err := srv.Submit(js)
			submits = append(submits, us(time.Since(t0)))
			tr.end(s)
			if err != nil {
				return err
			}
			for !j.State().Terminal() {
				time.Sleep(200 * time.Microsecond)
			}
			walls = append(walls, us(time.Since(t0)))
			o.attempted++
			if j.State() != server.JobDone {
				o.fail("in-process job ended %s", j.State())
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = srv.Drain(ctx)
		cancel()
		if err != nil {
			return err
		}
		o.layer[name] = ratio(median(walls)/steps, simStepUS)
		if !durable {
			o.layer["server.submit_us_p50"] = median(submits)
		}
	}
	return nil
}

// probeDaemon drives the real daemon with the family's job — a closed loop
// in which every other job is traced, then the open loop — and reads the
// server's own timestamps, the process counters and /metrics. It returns
// the closed loop's job times in milliseconds, traced and untraced.
func probeDaemon(ev *env, fam *family, slice time.Duration, tr *tracer, o *outcome) (tracedMS, untracedMS []float64, err error) {
	L := o.layer
	cpu0, _, err := ev.d.procUsage()
	if err != nil {
		return nil, nil, err
	}
	dr, err := runDaemonPhases(ev, fam, 2*slice, 2*slice, tr)
	if err != nil {
		return nil, nil, err
	}
	cpu1, rss, err := ev.d.procUsage()
	if err != nil {
		return nil, nil, err
	}
	closed, open, lateMS := dr.account(ev.in, o.refs, o)
	openMS := waits(open)
	all := append(append([]jobSample(nil), dr.closed...), dr.open...)
	crossCheckMetrics(ev.d, all, dr.refusedSeen, o)
	if len(closed) < 2 || len(open) == 0 {
		return nil, nil, fmt.Errorf("a daemon phase completed too few jobs: %v", o.problems)
	}
	// closedLoop traces every other job of each caller.
	for _, s := range dr.closed {
		if s.err == nil && !s.refused {
			if s.traced {
				tracedMS = append(tracedMS, ms(s.end.Sub(s.sent)))
			} else {
				untracedMS = append(untracedMS, ms(s.end.Sub(s.sent)))
			}
		}
	}

	var queue, exec, overhead, events []float64
	for i, s := range append(append([]jobSample(nil), dr.closed...), dr.open...) {
		v, ok := dr.views[s.id]
		if !ok || v.Started == nil || v.Finished == nil {
			continue
		}
		op := 2_000_000 + i
		root := tr.add("server.job", op, -1, v.Created, *v.Finished)
		tr.add("server.queue", op, root, v.Created, *v.Started)
		tr.add("server.exec", op, root, *v.Started, *v.Finished)
		queue = append(queue, ms(v.Started.Sub(v.Created)))
		exec = append(exec, ms(v.Finished.Sub(*v.Started)))
		if !s.end.IsZero() { // closed loop: the client saw the whole job
			overhead = append(overhead, ms(s.end.Sub(s.sent))-ms(v.Finished.Sub(v.Created)))
			events = append(events, float64(s.events))
		}
	}
	o.samples["server.queue_wait_ms_p90"] = len(queue)
	L["server.queue_wait_ms_p50"] = median(queue)
	L["server.queue_wait_ms_p90"] = percentile(queue, 0.90)
	L["server.exec_ms_p50"] = median(exec)
	L["server.client_overhead_ms_p50"] = median(overhead)
	L["harness.op_ms_p50_all"] = median(openMS)
	L["harness.op_ms_p90_all"] = percentile(openMS, 0.90)
	L["server.rejected_total"] = float64(dr.refusedSeen)
	L["server.stream_events_per_job"] = median(events)
	L["gen.late_ms_p90"] = percentile(lateMS, 0.90)
	L["daemon.cpu_ms_per_job"] = ratio(ms(cpu1-cpu0), float64(len(all)))
	L["daemon.peak_rss_mb"] = rss
	L["daemon.boot_ms"] = ev.d.bootMS
	o.samples["harness.op_ms_p90_all"] = len(openMS)
	return tracedMS, untracedMS, nil
}
