// Command bench is the repository's benchmark: every later performance
// claim is measured with it. It drives each layer from outside, through
// public functions and the daemon's HTTP API, checks that every run
// simulates exactly the run the reference engine simulates, and prints one
// JSON object as the last line of its output. See README.md beside it.
//
//	go run ./bench --workload dense_torus.sim --seed 1 --seconds 10 --trace 0
//	go run ./bench -sets 10            # noise calibration, every workload
//	go run ./bench -update-golden      # re-record golden.json (clean tree only)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

const benchmarkPath = "BENCHMARK.json"

// benchmarkFile is BENCHMARK.json, the contract the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// fingerprintInfo says which machine and which code produced a record, so
// two records can be told apart as code or machine.
type fingerprintInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
}

func machineFingerprint() fingerprintInfo {
	fp := fingerprintInfo{Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// record is what one run leaves in bench/out: the result, where it came
// from, and how many samples stand behind each number.
type record struct {
	Workload      string           `json:"workload"`
	Seed          int64            `json:"seed"`
	Seconds       float64          `json:"seconds"`
	Trace         bool             `json:"trace"`
	Machine       fingerprintInfo  `json:"machine"`
	Sizes         any              `json:"sizes"`
	Samples       map[string]int   `json:"samples"`
	GoldenChecked bool             `json:"golden_checked"`
	Problems      []string         `json:"problems,omitempty"`
	Result        result           `json:"result"`
	AllMetrics    map[string]value `json:"all_metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values, so the test can
// drive the whole command.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run (empty: every workload in turn)")
		seed      = fs.Int64("seed", 1, "workload seed; inputs are a function of it alone")
		seconds   = fs.Float64("seconds", 0, "how long one run measures (0: run_seconds of BENCHMARK.json)")
		trace     = fs.Int("trace", 0, "1: traced run reporting the per-layer metrics and writing "+outDir+"/trace-<workload>.json")
		sets      = fs.Int("sets", 0, "noise calibration: run each workload this many times, each a fresh process on seed, seed+1, ..., and check the spread against BENCHMARK.json")
		updGolden = fs.Bool("update-golden", false, "recompute "+goldenPath+" at -seed and exit (refused on a tree dirty outside bench/)")
		goldenArg = fs.String("golden", goldenPath, "golden statistics file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logf := func(format string, a ...any) { fmt.Fprintf(stderr, "bench: "+format+"\n", a...) }
	if runtime.NumCPU() < 2 {
		logf("this machine has %d CPU; the benchmark's shard, dshard and daemon workloads run two workers and would report misleading parallel numbers on fewer than 2 — refusing to run", runtime.NumCPU())
		return 2
	}
	runtime.GOMAXPROCS(clients)
	if _, err := os.Stat("go.mod"); err != nil {
		logf("run from the repository root (go.mod not found: %v)", err)
		return 2
	}
	if *updGolden {
		if err := updateGolden(*seed); err != nil {
			logf("%v", err)
			return 1
		}
		logf("wrote %s for seed %d", goldenPath, *seed)
		return 0
	}
	bf, err := loadBenchmark(benchmarkPath)
	if err != nil {
		logf("%v", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(bf.RunSeconds)
	}
	golden, err := loadGolden(*goldenArg)
	if err != nil {
		logf("%v", err)
		return 2
	}

	var todo []workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		logf("unknown workload %q", *name)
		return 2
	}
	if *sets > 0 {
		return calibrate(todo, *seed, *seconds, *sets, bf, stdout, logf)
	}
	code := 0
	for _, w := range todo {
		cfg := runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace != 0, golden: golden, logf: logf}
		o, err := runWorkload(cfg)
		if err != nil {
			logf("%s: %v", w.name, err)
			return 1
		}
		res := report(cfg, o, stdout, logf)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// report prints every metric of the run by name with its unit, stores the
// record, and ends with the result line.
func report(cfg runConfig, o *outcome, stdout io.Writer, logf func(string, ...any)) result {
	wanted, source := endToEndMetrics(), o.e2e
	if cfg.trace {
		wanted, source = perLayerMetrics(), o.layer
	}
	res := result{Correct: o.failed == 0, Attempted: max(o.attempted, 1), Failed: o.failed, Metrics: map[string]value{}}
	for _, m := range wanted {
		v, ok := source[m.name]
		if !ok {
			logf("%s: metric %s was not measured", cfg.w.name, m.name)
			res.Correct = false
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	for _, p := range o.problems {
		logf("%s: FAILED: %s", cfg.w.name, p)
	}
	if !o.goldenChecked && cfg.golden != nil {
		logf("%s: golden comparison skipped (seed %d is not the golden seed %d); cross-surface equality was checked",
			cfg.w.name, cfg.seed, cfg.golden.Seed)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-22s %-32s %14.6g %s\n", cfg.w.name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}

	all := map[string]value{}
	for _, m := range endToEndMetrics() {
		if v, ok := o.e2e[m.name]; ok {
			all[m.name] = value{v, m.unit}
		}
	}
	for _, m := range perLayerMetrics() {
		if v, ok := o.layer[m.name]; ok {
			all[m.name] = value{v, m.unit}
		}
	}
	rec := record{Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Machine: machineFingerprint(), Sizes: cfg.w.fam.sizes(), Samples: o.samples,
		GoldenChecked: o.goldenChecked, Problems: o.problems, Result: res, AllMetrics: all}
	suffix := ""
	if cfg.trace {
		suffix = "-trace"
	}
	if data, err := json.MarshalIndent(rec, "", "  "); err == nil {
		path := filepath.Join(outDir, "result-"+cfg.w.name+suffix+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			logf("%v", err)
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	return res
}

// sizes is the family as the record states it.
func (f *family) sizes() map[string]any {
	js, _ := json.Marshal(f.spec)
	return map[string]any{
		"family": f.name, "job_spec": json.RawMessage(js), "job_seeds": f.seeds,
		"resume_at": f.resumeAt, "checkpoint_every": f.ckptEvery, "open_rate_per_s": f.openRate,
		"grid": fmt.Sprintf("%dx%d", gridP, gridQ), "dist_workers": distWorkers, "clients": clients,
		"daemon_queue": daemonQueue,
	}
}
