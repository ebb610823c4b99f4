package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"hotpotato/internal/sim"
)

// The harness addresses the repository from its root (go.mod, ./cmd,
// bench/out), which is where the benchmark's command runs it.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestHighestTailRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{9, 0}, {19, 0}, {20, 0.50}, {39, 0.50}, {40, 0.75}, {99, 0.75}, {100, 0.90},
		{199, 0.90}, {200, 0.95}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// harness.op_ms_p90_all is this rule at the open loops' sample counts: the
	// rate times the open phase, a quarter of the traced run and half of
	// the untraced one. It must support p90 at least there.
	bf, err := loadBenchmark(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		if w.surf != surfDaemon {
			continue
		}
		n := len(dueTimes(time.Now(), w.fam.openRate, time.Duration(bf.RunSeconds)*time.Second/4))
		if q := highestTail(n); q < 0.90 {
			t.Errorf("%s: %d open-loop jobs support p%g at most, harness.op_ms_p90_all needs p90", w.name, n, q*100)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := relIQR(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("relIQR = %v, want 1", got)
	}
}

// A job is timed from when it was due, not from when it was sent: a stall
// that delays a send is charged to the job, and shows as generator lateness.
func TestOpenLoopDueTimeAccounting(t *testing.T) {
	start := time.Unix(1_700_000_000, 0)
	due := dueTimes(start, 200, time.Second)
	if len(due) != 200 || !due[0].Equal(start) || due[199].Sub(start) != 995*time.Millisecond {
		t.Fatalf("schedule: %d jobs, first %v, last +%v", len(due), due[0], due[199].Sub(start))
	}
	ref := runStats{Steps: 3, Delivered: 1, Total: 1, TotalHops: 3, FinalHash: "00000000000000ab"}
	fin := due[1].Add(60 * time.Millisecond)
	started := due[1].Add(55 * time.Millisecond)
	dr := &daemonRun{
		open: []jobSample{{id: "j000001", due: due[1], sent: due[1].Add(50 * time.Millisecond)}},
		views: map[string]jobView{"j000001": {ID: "j000001", State: "done", Created: started, Started: &started, Finished: &fin,
			Result: &sim.Result{Steps: 3, Delivered: 1, Total: 1, TotalHops: 3}, FinalHash: ref.FinalHash}},
	}
	o := &outcome{}
	in := &instance{fam: families()[0], seeds: []int64{1}}
	_, open, lateMS := dr.account(in, []runStats{ref}, o)
	if o.failed != 0 || o.attempted != 1 {
		t.Fatalf("attempted %d failed %d: %v", o.attempted, o.failed, o.problems)
	}
	if len(open) != 1 || open[0].ms != 60 || lateMS[0] != 50 {
		t.Errorf("latency %v ms (want 60, from the due time), lateness %v ms (want 50)", open, lateMS)
	}
	// Statistics that differ from the reference, and a refusal, are failures.
	dr.views["j000001"].Result.TotalHops = 4
	dr.open = append(dr.open, jobSample{due: due[2], sent: due[2], refused: true})
	o = &outcome{}
	dr.account(in, []runStats{ref}, o)
	if o.failed != 2 || o.attempted != 2 {
		t.Errorf("attempted %d failed %d, want 2 and 2", o.attempted, o.failed)
	}
}

func TestNamesAgreeWithBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchmark(benchmarkPath)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	same := func(kind string, harness, file map[string]string) {
		t.Helper()
		for n, u := range harness {
			if !name.MatchString(n) || !unit.MatchString(u) {
				t.Errorf("%s %q (unit %q) is outside the contract's alphabet", kind, n, u)
			}
			if fu, ok := file[n]; !ok {
				t.Errorf("%s %q is measured by the harness but missing from %s", kind, n, benchmarkPath)
			} else if fu != u {
				t.Errorf("%s %q: unit %q in the harness, %q in %s", kind, n, u, fu, benchmarkPath)
			}
		}
		for n := range file {
			if _, ok := harness[n]; !ok {
				t.Errorf("%s %q is listed in %s but the harness does not measure it", kind, n, benchmarkPath)
			}
		}
	}
	h, f := map[string]string{}, map[string]string{}
	for _, w := range workloads() {
		h[w.name] = "-"
	}
	for _, w := range bf.Workloads {
		f[w.Name] = "-"
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	same("workload", h, f)
	h, f = map[string]string{}, map[string]string{}
	for _, m := range endToEndMetrics() {
		h[m.name] = m.unit
	}
	hasSetup := false
	for _, m := range bf.EndToEnd {
		f[m.Name] = m.Unit
		if m.Bound < 0.05 || m.Bound > 0.25 {
			t.Errorf("end-to-end %q: bound %v outside [0.05, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("end-to-end %q: better %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is required")
	}
	same("end-to-end metric", h, f)
	h, f = map[string]string{}, map[string]string{}
	for _, m := range perLayerMetrics() {
		h[m.name] = m.unit
	}
	for _, m := range bf.PerLayer {
		f[m.Name] = m.Unit
	}
	same("per-layer metric", h, f)
	if len(h) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(h))
	}
}

// miniature returns the real workloads on shrunken families (8x8 and 32x32).
func miniature() []workload {
	ws := workloads()
	seen := map[*family]bool{}
	for _, w := range ws {
		f := w.fam
		if seen[f] {
			continue
		}
		seen[f] = true
		switch f.name {
		case "dense_torus":
			f.spec.Side = 8
		case "sparse_arrivals":
			*f = *mustFamily(family{name: f.name, spec: f.spec, workload: f.workload,
				arrivals: "poisson:rate=0.002,until=60", seeds: 1, openRate: 20})
			f.spec.Side = 32
		case "small_jobs":
			f.spec.Side, f.spec.K, f.seeds, f.openRate = 8, 32, 4, 100
		case "durable_jobs":
			f.spec.Side, f.resumeAt, f.ckptEvery, f.seeds = 8, 2, 2, 2
		}
	}
	return ws
}

// TestMiniaturePass runs every workload end to end at toy sizes, daemon
// included, and one traced run per family so that every per-layer row is
// produced. It checks the plumbing, not the numbers.
func TestMiniaturePass(t *testing.T) {
	logf := func(format string, a ...any) { t.Logf(format, a...) }
	traced := map[string]bool{}
	for _, w := range miniature() {
		for _, trace := range []bool{false, true} {
			if trace && traced[w.fam.name] {
				continue
			}
			secs := 0.25
			if trace {
				traced[w.fam.name] = true
				secs = 0.8
			}
			cfg := runConfig{w: w, seed: 3, seconds: secs, trace: trace, logf: logf}
			o, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			var out bytes.Buffer
			res := report(cfg, o, &out, logf)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %v): %+v\n%v", w.name, trace, res, o.problems)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.name, err)
			}
			want := endToEndMetrics()
			if trace {
				want = perLayerMetrics()
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics printed, want %d", w.name, trace, len(last.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := last.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: metric %s = %+v (present %v)", w.name, m.name, v, ok)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.name, v.Value)
				}
			}
			if trace {
				if last.Metrics["core.p8_violations"].Value != 0 || last.Metrics["dshard.recoveries"].Value != 0 {
					t.Errorf("%s: p8_violations and recoveries must be 0", w.name)
				}
				if _, err := os.Stat(filepath.Join(outDir, "trace-"+w.name+".json")); err != nil {
					t.Errorf("%s: %v", w.name, err)
				}
			}
		}
	}
}

// The day dshard accepts arrivals, the absent cell must be filled: the
// check that keeps the declaration honest must itself be live.
func TestDistRejectionCheck(t *testing.T) {
	var sparse, dense *family
	for _, f := range families() {
		switch f.name {
		case "sparse_arrivals":
			sparse = f
		case "dense_torus":
			dense = f
		}
	}
	o := &outcome{}
	checkDistRejection(&instance{fam: sparse, seeds: []int64{1}}, o)
	if o.failed != 0 {
		t.Errorf("arrivals on a distributed job were not rejected as expected: %v", o.problems)
	}
	// A batch job is accepted, so the same check must fail on it.
	o = &outcome{}
	checkDistRejection(&instance{fam: dense, seeds: []int64{1}}, o)
	if o.failed != 1 {
		t.Errorf("a missing rejection must count as a failure, got %d", o.failed)
	}
}

func TestTamperedGoldenFailsTheCommand(t *testing.T) {
	args := []string{"-workload", "dense_torus.sim", "-seed", "1", "-seconds", "0.2"}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("clean golden: exit %d\n%s", code, errb.String())
	}
	g, err := loadGolden(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	e := g.Families["dense_torus"]
	e.First.TotalHops++
	g.Families["dense_torus"] = e
	data, _ := json.Marshal(g)
	tampered := filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(tampered, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errb.Reset()
	if code := run(append(args, "-golden", tampered), &out, &errb); code == 0 {
		t.Fatalf("tampered golden: exit 0\n%s", errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct || res.Failed == 0 {
		t.Errorf("tampered golden: result %+v (err %v), want correct=false", res, err)
	}
	// Another seed has no golden statistics: the comparison is skipped and
	// said to be.
	errb.Reset()
	if code := run([]string{"-workload", "dense_torus.sim", "-seed", "2", "-seconds", "0.2"}, &out, &errb); code != 0 {
		t.Fatalf("seed 2: exit %d\n%s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "golden comparison skipped") {
		t.Errorf("seed 2 must report the golden comparison as skipped:\n%s", errb.String())
	}
}

// A burst that slows a third of the run must not move the reported
// quartiles: that is what they are for.
func TestQuietQuartilesIgnoreABurst(t *testing.T) {
	run := func(slowFrom, slowTo int) (float64, float64) {
		var ops []timed
		var at time.Duration
		for i := 0; i < 1000; i++ {
			wall := 10 * time.Millisecond
			if sec := int(at / time.Second); sec >= slowFrom && sec < slowTo {
				wall = 15 * time.Millisecond
			}
			at += wall
			ops = append(ops, timed{at: at, ms: ms(wall), hops: 1000})
		}
		return quietQuartiles(ops, 1)
	}
	quietThr, quietMS := run(0, 0)
	thr, med := run(3, 7)
	if math.Abs(thr-quietThr)/quietThr > 0.02 || med != quietMS {
		t.Errorf("with a burst: %.0f hops/s, %.1f ms; without: %.0f hops/s, %.1f ms", thr, med, quietThr, quietMS)
	}
	if math.Abs(quietThr-100_000)/100_000 > 0.01 || quietMS != 10 {
		t.Errorf("steady run: %.0f hops/s (want 100000), %.1f ms (want 10)", quietThr, quietMS)
	}
	// A single operation is a run too.
	if thr, med := quietQuartiles([]timed{{at: time.Second, ms: 1000, hops: 5}}, 1); thr != 5 || med != 1000 {
		t.Errorf("one operation: %v hops/s, %v ms", thr, med)
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	e := tr.epoch
	root := tr.add("step", 1, -1, e, e.Add(100))
	tr.add("inject", 1, root, e.Add(10), e.Add(40))
	tr.add("inject", 1, root, e.Add(50), e.Add(60))
	self := tr.selfTimes()
	if self["step"] != 60 || self["inject"] != 40 {
		t.Errorf("self times %v, want step 60 inject 40", self)
	}
}
