package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hotpotato/internal/server"
)

// outDir is where the harness writes: the daemon binary, traces, result
// records and per-run scratch. It is inside the checkout and git-ignored.
const outDir = "bench/out"

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median, so one slow fork or page-cache miss does not set the number. A
// library set-up takes well under a millisecond and is repeated more.
const (
	setupRepeats        = 5
	librarySetupRepeats = 15
)

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, in the driver's shape.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runConfig is one invocation of one workload.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	golden  *goldenFile // nil skips the golden comparison
	logf    func(format string, args ...any)
}

// outcome is everything one run learned, before it is cut down to the
// metrics the driver asked for.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
	samples           map[string]int // sample count behind each percentile
	refs              []runStats
	goldenChecked     bool
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// env is a workload set up and ready to be measured.
type env struct {
	in      *instance
	d       *daemon // nil for library surfaces
	dir     string
	buildS  float64
	setupS  float64
	cleanup func()
}

// setUp builds the daemon when the workload needs one (off the set-up
// clock), then sets the workload up several times — mesh and tables, seeds,
// pre-made checkpoints, daemon boot until /readyz answers — keeping the
// last one for the measurement.
func setUp(cfg runConfig, needDaemon bool) (*env, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	ev := &env{dir: dir}
	ev.cleanup = func() {
		if ev.d != nil {
			ev.d.kill()
		}
		os.RemoveAll(dir)
	}
	var bin string
	if needDaemon {
		var took time.Duration
		if bin, took, err = buildDaemon(outDir); err != nil {
			ev.cleanup()
			return nil, err
		}
		ev.buildS = took.Seconds()
	}
	repeats := librarySetupRepeats
	if needDaemon {
		repeats = setupRepeats
	}
	var times []float64
	for r := 0; r < repeats; r++ {
		sub := filepath.Join(dir, fmt.Sprintf("s%d", r))
		if err := os.MkdirAll(filepath.Join(sub, "ckpt"), 0o755); err != nil {
			ev.cleanup()
			return nil, err
		}
		t0 := time.Now()
		in, err := newInstance(cfg.w.fam, cfg.seed, sub)
		if err != nil {
			ev.cleanup()
			return nil, err
		}
		var d *daemon
		if needDaemon {
			if d, err = startDaemon(bin, sub, cfg.w.fam.ckptEvery); err != nil {
				ev.cleanup()
				return nil, err
			}
		}
		times = append(times, time.Since(t0).Seconds())
		if r == repeats-1 {
			ev.in, ev.d = in, d
		} else if d != nil {
			if _, err := d.stop(); err != nil {
				ev.cleanup()
				return nil, err
			}
		}
	}
	ev.setupS = median(times)
	return ev, nil
}

// libraryLoop runs complete engine runs back to back for dur.
func libraryLoop(in *instance, surf surface, dur time.Duration, tr *tracer, o *outcome) []opSample {
	var out []opSample
	stopAt := time.Now().Add(dur)
	for n := 0; time.Now().Before(stopAt); n++ {
		idx := n % len(in.seeds)
		s, err := in.engineOp(surf, idx, tr, n)
		o.attempted++
		if err != nil {
			o.fail("%s op %d: %v", surf, n, err)
			if o.failed > 3 {
				break
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// onClock places back-to-back library operations on the measurement
// clock: the sum of their timed parts, which leaves out the packet
// generation done between them off the clock.
func onClock(ops []opSample) []timed {
	out := make([]timed, len(ops))
	var at time.Duration
	for i, s := range ops {
		at += s.wall
		out[i] = timed{at: at, ms: ms(s.wall), hops: s.hops}
	}
	return out
}

// daemonPhases runs the closed loop then the open loop against the daemon,
// fetching statuses after each phase, off the clock.
type daemonRun struct {
	closed, open []jobSample
	views        map[string]jobView
	refusedSeen  int
}

func runDaemonPhases(ev *env, fam *family, closedDur, openDur time.Duration, tr *tracer) (*daemonRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dr := &daemonRun{}
	dr.closed = closedLoop(ev.d, ev.in, closedDur, tr)
	if _, err := ev.d.statuses(ctx); err != nil {
		return nil, err
	}
	dr.open = openLoop(ev.d, ev.in, fam.openRate, openDur, tr)
	var err error
	dr.views, err = ev.d.statuses(ctx)
	return dr, err
}

// account checks every job of a daemon run against its reference and
// places the good ones on the measurement clock: closed-loop jobs where
// their stream ended, with the time their client waited; open-loop jobs
// where they were due, with the time from then to the daemon's own finish
// time. lateMS is how late the generator sent each open-loop job.
func (dr *daemonRun) account(in *instance, refs []runStats, o *outcome) (closed, open []timed, lateMS []float64) {
	check := func(s jobSample) (jobView, bool) {
		o.attempted++
		switch {
		case s.err != nil:
			o.fail("job: %v", s.err)
		case s.refused:
			dr.refusedSeen++
			o.fail("job refused (429)")
		default:
			v, ok := dr.views[s.id]
			switch {
			case !ok:
				o.fail("job %s missing from the daemon's list", s.id)
			case v.State != "done" || v.Result == nil || v.Finished == nil:
				o.fail("job %s ended %s: %s", s.id, v.State, v.Error)
			case statsOf(v.Result, v.FinalHash) != refs[s.seedIdx]:
				o.fail("job %s: statistics %+v differ from the library's %+v", s.id, statsOf(v.Result, v.FinalHash), refs[s.seedIdx])
			default:
				return v, true
			}
		}
		return jobView{}, false
	}
	for _, s := range dr.closed {
		if v, ok := check(s); ok {
			closed = append(closed, timed{at: s.end.Sub(dr.closed[0].sent), ms: ms(s.end.Sub(s.sent)),
				hops: in.work(s.seedIdx, in.jobSpec(s.seedIdx), v.Result.TotalHops)})
		}
	}
	for _, s := range dr.open {
		lateMS = append(lateMS, ms(s.sent.Sub(s.due)))
		if v, ok := check(s); ok {
			open = append(open, timed{at: s.due.Sub(dr.open[0].due), ms: ms(v.Finished.Sub(s.due))})
		}
	}
	return
}

// crossCheckMetrics holds the daemon's own counters to what the clients
// saw: every 202 accepted, every job completed, nothing failed, and
// exactly the refusals the clients were handed.
func crossCheckMetrics(d *daemon, sent []jobSample, refused int, o *outcome) {
	m, err := d.scrape()
	if err != nil {
		o.fail("scrape /metrics: %v", err)
		return
	}
	accepted := 0
	for _, s := range sent {
		if s.id != "" {
			accepted++
		}
	}
	for name, want := range map[string]int{
		"hotpotatod_jobs_accepted_total":  accepted,
		"hotpotatod_jobs_completed_total": accepted,
		"hotpotatod_jobs_failed_total":    0,
		"hotpotatod_jobs_rejected_total":  refused,
	} {
		if got, ok := m[name]; !ok || int(got) != want {
			o.fail("/metrics %s = %v, clients counted %d", name, got, want)
		}
	}
}

// references computes, off the clock, the statistics every operation of
// the run must reproduce: one run per job seed on the reference surface —
// sim, or shard for the sim workloads themselves, so that every run
// compares two different engines. Resuming families are referenced from
// scratch: a job resumed from a checkpoint must end where an uninterrupted
// run ends.
func references(in *instance, surf surface) ([]runStats, error) {
	ref := surfSim
	if surf == surfSim {
		ref = surfShard
	}
	scratch := *in
	scratch.ckpt, scratch.baseHops = nil, nil
	out := make([]runStats, len(in.seeds))
	for i := range in.seeds {
		s, err := scratch.engineOp(ref, i, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("reference run (%s, seed %d): %w", ref, in.seeds[i], err)
		}
		out[i] = s.stats
	}
	return out, nil
}

// distRejection is what admission must answer a distributed job that
// carries arrivals: injector state cannot ride a dshard checkpoint. The
// cell (arrival-driven family) x dshard is declared absent, not zero, and
// this check is what keeps the declaration true: the day dshard accepts
// arrivals, it fails and the cell must be filled.
const distRejection = "distributed jobs do not support arrivals"

func checkDistRejection(in *instance, o *outcome) {
	o.attempted++
	srv, err := server.New(server.Config{})
	if err != nil {
		o.fail("dshard arrivals rejection: %v", err)
		return
	}
	js := in.jobSpec(0)
	js.Shards, js.DistWorkers = fmt.Sprintf("%dx%d", gridP, gridQ), distWorkers
	if _, err := srv.Submit(js); err == nil || !strings.Contains(err.Error(), distRejection) {
		o.fail("a distributed job with arrivals must be rejected with %q, got: %v", distRejection, err)
	}
}

// runWorkload is one invocation: set up, measure for cfg.seconds, verify.
func runWorkload(cfg runConfig) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}}
	ev, err := setUp(cfg, cfg.w.surf == surfDaemon || cfg.trace)
	if err != nil {
		return nil, err
	}
	defer ev.cleanup()
	o.e2e["setup_s"] = ev.setupS
	o.layer["harness.build_s"] = ev.buildS

	refs, err := references(ev.in, cfg.w.surf)
	if err != nil {
		return nil, err
	}
	o.refs = refs
	if cfg.golden != nil && cfg.golden.Seed == cfg.seed {
		o.goldenChecked = true
		o.attempted++
		if msg := cfg.golden.compare(cfg.w.fam.name, refs); msg != "" {
			o.fail("golden: %s", msg)
		}
	}

	if cfg.w.fam.arrivals != "" {
		checkDistRejection(ev.in, o)
	}

	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		if err := tracedRun(cfg, ev, dur, o); err != nil {
			return nil, err
		}
	} else {
		var thr, lat []timed // the closed loop's operations; the population latency is taken on
		if cfg.w.surf == surfDaemon {
			dr, err := runDaemonPhases(ev, cfg.w.fam, dur/2, dur/2, nil)
			if err != nil {
				return nil, err
			}
			thr, lat, _ = dr.account(ev.in, refs, o)
			crossCheckMetrics(ev.d, append(dr.closed, dr.open...), dr.refusedSeen, o)
		} else {
			ops := libraryLoop(ev.in, cfg.w.surf, dur, nil, o)
			for _, s := range ops {
				if s.stats != refs[s.seedIdx] {
					o.fail("%s run of seed %d: statistics %+v differ from the reference's %+v",
						cfg.w.surf, ev.in.seeds[s.seedIdx], s.stats, refs[s.seedIdx])
				}
			}
			thr = onClock(ops)
			lat = thr
		}
		if len(thr) == 0 || len(lat) == 0 {
			return nil, fmt.Errorf("no operation completed in %.1fs: %v", cfg.seconds, o.problems)
		}
		callers := 1
		if cfg.w.surf == surfDaemon {
			callers = clients
		}
		o.e2e["hops_per_s"], _ = quietQuartiles(thr, callers)
		_, o.e2e["op_ms_p50"] = quietQuartiles(lat, callers)
		all := waits(lat)
		o.samples["hops_per_s"], o.samples["op_ms_p50"] = len(thr), len(lat)
		o.layer["harness.op_ms_p50_all"] = median(all)
		o.layer["harness.op_ms_p90_all"] = percentile(all, 0.90)
		if q := highestTail(len(all)); q < 0.90 {
			cfg.logf("%d operations support p%g at most: fewer than %d lie beyond the p90 in this run's record",
				len(all), q*100, tailMinBeyond)
		}
	}

	if ev.d != nil {
		d := ev.d
		ev.d = nil
		drain, err := d.stop()
		if err != nil {
			o.attempted++
			o.fail("%v", err)
		}
		o.layer["daemon.drain_ms"] = drain
	}
	return o, nil
}
