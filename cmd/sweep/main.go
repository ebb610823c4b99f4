// Command sweep runs a full parameter grid — policies x workloads x mesh
// sizes x packet counts — and prints one row per cell, with the relevant
// paper bound alongside. It is the free-form companion to cmd/experiments:
// where experiments regenerates the fixed tables of EXPERIMENTS.md, sweep
// lets you explore any slice of the parameter space.
//
// Grids run under the internal/run supervisor: a failing or panicking cell
// is recorded and skipped, not retried (a cell is a pure function of its
// parameters and seed), and with -journal every finished cell is persisted
// as one JSONL line. A sweep interrupted by SIGINT/SIGTERM (or a crash) can
// then be continued with -resume, rerunning only the missing cells.
//
// Example:
//
//	sweep -d 2 -n 8,16 -k 64,256 -policy restricted,random -workload uniform,permutation -trials 5
//	sweep -n 32 -k 1024 -trials 20 -journal sweep.jsonl   # interrupted...
//	sweep -n 32 -k 1024 -trials 20 -journal sweep.jsonl -resume
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"hotpotato/internal/analysis"
	"hotpotato/internal/core"
	"hotpotato/internal/engine"
	"hotpotato/internal/profiling"
	runner "hotpotato/internal/run"
	"hotpotato/internal/shard"
	"hotpotato/internal/spec"
	"hotpotato/internal/stats"
	"hotpotato/internal/version"
)

func main() {
	// The first SIGINT/SIGTERM cancels the context: the supervisor stops
	// dispatching, finishes in-flight cells, and flushes the journal. A
	// second signal restores the default disposition and kills immediately
	// — safe, because every completed cell is already on disk.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := runCtx(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run keeps the historical signature for tests and non-interruptible use.
func run(args []string) error { return runCtx(context.Background(), args) }

// parseList parses a comma-separated flag value with parse.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		v, err := parse(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// openTrial opens one trial through the engine opener and, with track,
// attaches the potential tracker to the single engine's move stream — which
// a sharded run does not have, so it refuses -track.
func openTrial(es engine.Spec, track bool) (*engine.Run, *core.Tracker, error) {
	r, err := engine.Open(es)
	if err != nil || !track {
		return r, nil, err
	}
	e := r.Sim()
	if e == nil {
		r.Close()
		return nil, nil, fmt.Errorf("%w: -shards cannot be combined with -track (the tracker observes one engine's move stream)", engine.ErrUnsupported)
	}
	tracker := core.NewTracker(r.Mesh(), r.Packets(), core.TrackerOptions{SelfCheckEvery: 64})
	e.AddObserver(tracker)
	return r, tracker, nil
}

// runTrial runs one trial to the end and keeps what a table row needs. A
// trial cut short by ctx's deadline (-cell-timeout) is an error, not a row.
func runTrial(ctx context.Context, es engine.Spec, track bool) (*analysis.TrialResult, error) {
	r, tracker, err := openTrial(es, track)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	res, err := r.Run(ctx, nil)
	switch {
	case err != nil:
		return nil, err
	case res.DeadlineExceeded:
		return nil, context.Cause(ctx)
	}
	tr := &analysis.TrialResult{Result: res}
	if tracker != nil {
		tr.Violations = tracker.Violations()
	}
	return tr, nil
}

// cellRow is the JSON payload one grid cell produces: everything needed to
// print its table row. It round-trips through the journal, so resumed cells
// render identically to freshly computed ones.
type cellRow struct {
	Network    string  `json:"network"`
	N          int     `json:"n"`
	K          int     `json:"k"`
	Workload   string  `json:"workload"`
	Policy     string  `json:"policy"`
	FaultRate  float64 `json:"fault_rate"`
	Delivered  int     `json:"delivered"`
	Dropped    int     `json:"dropped"`
	StepsMean  float64 `json:"steps_mean"`
	StepsStd   float64 `json:"steps_std"`
	StepsMax   int     `json:"steps_max"`
	DeflMean   float64 `json:"defl_mean"`
	Bound      float64 `json:"bound"` // 0: no proved bound applies (arrivals, torus)
	Violations string  `json:"violations"`
}

func runCtx(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		dim           = fs.Int("d", 2, "mesh dimension")
		nsFlag        = fs.String("n", "8,16", "comma-separated mesh side lengths")
		ksFlag        = fs.String("k", "64", "comma-separated packet counts (for workloads that take one)")
		polFlag       = fs.String("policy", "restricted", "comma-separated policies")
		wlFlag        = fs.String("workload", "uniform", "comma-separated workload specs, each name[:key=val,...]")
		arrFlag       = fs.String("arrivals", "", "arrival traffic added to every cell: proc[:key=val,...][;proc2:...] (see hotpotato -list-workloads)")
		maxSteps      = fs.Int("max-steps", 0, "per-trial step budget (0 = engine default; bound this for open-ended arrivals)")
		trials        = fs.Int("trials", 3, "trials per cell")
		seed          = fs.Int64("seed", 1, "base seed")
		torus         = fs.Bool("torus", false, "use a torus instead of a mesh")
		track         = fs.Bool("track", false, "attach the potential tracker and report violations")
		workers       = fs.Int("parallel", 1, "worker goroutines per cell")
		shardsFlag    = fs.String("shards", "", "run each trial on the sharded engine with this PxQ grid (2-D only, bit-identical results)")
		csvOut        = fs.Bool("csv", false, "emit CSV")
		validate      = fs.Bool("strict", false, "validate Definition 18 (restricted preference) too")
		frFlag        = fs.String("fault-rate", "0", "comma-separated per-link per-step failure probabilities (0 = intact mesh)")
		faultRepair   = fs.Float64("fault-repair", 0.05, "per-link per-step repair probability for downed links")
		faultMaxDown  = fs.Int("fault-max-down", 0, "cap on concurrently failed links (0 = unlimited)")
		journalPath   = fs.String("journal", "", "record finished cells to this JSONL journal")
		resume        = fs.Bool("resume", false, "with -journal, skip cells the journal already records")
		cellsParallel = fs.Int("cells-parallel", 1, "grid cells run concurrently")
		cellTimeout   = fs.Duration("cell-timeout", 0, "wall-clock budget per cell (0 = unlimited)")
		quietCells    = fs.Bool("quiet-cells", false, "suppress per-cell progress lines on stderr")
		cpuProfile    = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile    = fs.String("memprofile", "", "write a heap profile to this file on exit")
		showVer       = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVer {
		fmt.Println(version.String("sweep"))
		return nil
	}
	if *resume && *journalPath == "" {
		return errors.New("-resume needs -journal")
	}
	if *cpuProfile != "" || *memProfile != "" {
		stopProf, err := profiling.Start(*cpuProfile, *memProfile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stopProf(); err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
			}
		}()
	}
	ns, err := parseList(*nsFlag, strconv.Atoi)
	if err != nil {
		return err
	}
	ks, err := parseList(*ksFlag, strconv.Atoi)
	if err != nil {
		return err
	}
	kSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "k" {
			kSet = true
		}
	})
	arrSpec, err := spec.ParseArrivalSpec(*arrFlag)
	if err != nil {
		return err
	}
	if arrSpec != nil && *track {
		return errors.New("-arrivals and -track are mutually exclusive (the tracker reconstructs runs from the initial batch)")
	}
	faultRates, err := parseList(*frFlag, parseFloat)
	if err != nil {
		return err
	}
	var grid shard.Grid
	if *shardsFlag != "" {
		if grid, err = shard.ParseGrid(*shardsFlag); err != nil {
			return err
		}
	}
	validation := ""
	if *validate {
		validation = "restricted"
	}

	// Build the grid eagerly so bad flags fail before anything runs, and so
	// cells carry everything they need without touching shared state. Each
	// cell is one engine.Spec, opened once here: which engine runs it and
	// which combinations it refuses is the opener's call, made up front.
	var cells []runner.Cell
	for _, n := range ns {
		for _, k := range ks {
			for _, wlName := range spec.SplitSpecList(*wlFlag) {
				ws, err := spec.ParseWorkloadSpec(wlName)
				if err != nil {
					return err
				}
				if kSet && ws.FixedSize() {
					return fmt.Errorf("workload %q derives its packet count from the mesh; drop -k", ws.Name)
				}
				ws.Arrivals = arrSpec
				// SplitSpecList keeps parameterized policy specs
				// ("weighted:age=1,dist=-0.5") in one piece: a bare key=val
				// segment belongs to the spec before it.
				for _, polName := range spec.SplitSpecList(*polFlag) {
					for _, frate := range faultRates {
						es := engine.Spec{
							Dim: *dim, Side: n, Torus: *torus,
							Policy: polName, Validation: validation,
							Workload: ws, K: k, MaxSteps: *maxSteps,
							Fault: &spec.FaultConfig{Rate: frate, Repair: *faultRepair, MaxDown: *faultMaxDown},
							Grid:  grid,
						}
						r, _, err := openTrial(es, *track)
						if err != nil {
							return err
						}
						network := r.Mesh().String()
						r.Close()
						n, k, wlName, polName, frate := n, k, wlName, polName, frate
						cells = append(cells, runner.Cell{
							Key: fmt.Sprintf("n=%d/k=%d/%s/%s/fr=%g", n, k, wlName, polName, frate),
							Work: func(ctx context.Context) (json.RawMessage, error) {
								results, err := analysis.RunSeeds(*trials, *seed, *workers, func(seed int64) (*analysis.TrialResult, error) {
									es := es
									es.Seed = seed
									return runTrial(ctx, es, *track)
								})
								if err != nil {
									return nil, err
								}
								sm := stats.SummarizeInts(analysis.Steps(results))
								var deflSum float64
								kAct, delivered, dropped := 0, 0, 0
								for _, r := range results {
									deflSum += float64(r.Result.TotalDeflections)
									kAct = r.Result.Total
									delivered += r.Result.Delivered
									dropped += r.Result.Dropped + r.Result.Absorbed
								}
								_, bound := analysis.BatchBound(*dim, n, kAct, *torus, arrSpec != nil)
								viol := "-"
								if *track {
									viol = analysis.TotalViolations(results).String()
								}
								return json.Marshal(cellRow{
									Network: network, N: n, K: kAct, Workload: wlName,
									Policy: polName, FaultRate: frate, Delivered: delivered,
									Dropped: dropped, StepsMean: sm.Mean, StepsStd: sm.Std,
									StepsMax: int(sm.Max), DeflMean: deflSum / float64(len(results)),
									Bound: bound, Violations: viol,
								})
							},
						})
					}
				}
			}
		}
	}

	// The label ties a journal to one exact grid: every flag that shapes
	// cell keys or results is part of it, so -resume against the journal of
	// a different sweep fails loudly instead of mixing data.
	label := fmt.Sprintf("sweep d=%d n=%s k=%s policy=%s workload=%s arrivals=%s max-steps=%d fault-rate=%s fault-repair=%g fault-max-down=%d trials=%d seed=%d torus=%t track=%t strict=%t shards=%s",
		*dim, *nsFlag, *ksFlag, *polFlag, *wlFlag, *arrFlag, *maxSteps, *frFlag, *faultRepair, *faultMaxDown,
		*trials, *seed, *torus, *track, *validate, *shardsFlag)

	opts := runner.Options{
		Workers:     *cellsParallel,
		CellTimeout: *cellTimeout,
		Seed:        *seed,
	}
	if !*quietCells {
		opts.Log = os.Stderr
	}
	if *journalPath != "" {
		var j *runner.Journal
		if *resume {
			j, err = runner.ResumeJournal(*journalPath, label)
		} else {
			j, err = runner.OpenJournal(*journalPath, label)
		}
		if err != nil {
			return err
		}
		defer j.Close()
		opts.Journal = j
	}

	report, execErr := runner.Execute(ctx, cells, opts)
	if report == nil {
		return execErr
	}

	tb := stats.NewTable(
		fmt.Sprintf("sweep: d=%d, %d trials per cell", *dim, *trials),
		"network", "n", "k", "workload", "policy", "fault_rate", "delivered", "dropped",
		"steps_mean", "steps_std", "steps_max", "defl_mean", "bound", "max/bound", "violations")
	for _, c := range report.Cells {
		if c == nil || c.Status != runner.StatusOK {
			continue
		}
		var row cellRow
		if err := json.Unmarshal(c.Result, &row); err != nil {
			return fmt.Errorf("cell %s: corrupt payload: %w", c.Key, err)
		}
		var bound, ratio any = "-", "-"
		if row.Bound > 0 {
			bound, ratio = row.Bound, float64(row.StepsMax)/row.Bound
		}
		tb.AddRow(row.Network, row.N, row.K, row.Workload, row.Policy, row.FaultRate,
			row.Delivered, row.Dropped, row.StepsMean, row.StepsStd, row.StepsMax,
			row.DeflMean, bound, ratio, row.Violations)
	}
	if *csvOut {
		err = tb.WriteCSV(os.Stdout)
	} else {
		err = tb.WriteText(os.Stdout)
	}
	if err != nil {
		return err
	}

	for _, f := range report.Failures() {
		fmt.Fprintf(os.Stderr, "sweep: cell %s FAILED after %d attempt(s): %s\n", f.Key, f.Attempts, f.Err)
	}
	if execErr != nil {
		if errors.Is(execErr, runner.ErrInterrupted) && *journalPath != "" {
			fmt.Fprintf(os.Stderr, "sweep: interrupted with %d/%d cells done; journal flushed — rerun with -resume to finish\n",
				report.OK, len(cells))
		}
		return execErr
	}
	if n := report.Failed; n > 0 {
		return fmt.Errorf("%d of %d cells failed", n, len(cells))
	}
	if report.Resumed > 0 {
		fmt.Fprintf(os.Stderr, "sweep: %d of %d cells replayed from %s\n",
			report.Resumed, len(cells), *journalPath)
	}
	return nil
}
