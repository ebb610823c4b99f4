// Command hotpotato runs one hot-potato routing problem on a d-dimensional
// mesh or torus and reports the outcome, optionally with full
// potential-function tracking.
//
// Usage:
//
//	hotpotato -d 2 -n 16 -workload uniform -k 128 -policy restricted -seed 1 -track
//	hotpotato -workload hotspot:frac=0.7 -arrivals "poisson:rate=0.02;adversary:rho=1"
//	hotpotato -n 64 -workload full-load -shards 2x2 -dist 2   # 2 worker processes
//	hotpotato -n 64 -workload full-load -shards 2x2 -dist 2 -listen /tmp/c.sock -token T
//	hotpotato worker -addr /tmp/c.sock -token T               # one of them, started by hand
//
// Workloads and arrival processes take parameters with the
// name:key=val,... syntax; run with -list-workloads for every registered
// policy, workload and arrival process with its parameter schema.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"hotpotato/internal/analysis"
	"hotpotato/internal/bound"
	"hotpotato/internal/core"
	"hotpotato/internal/dshard"
	"hotpotato/internal/engine"
	"hotpotato/internal/policylab"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
	"hotpotato/internal/trace"
	"hotpotato/internal/traffic"
	"hotpotato/internal/version"
	"hotpotato/internal/viz"
	"hotpotato/internal/workload"
)

// verifyTrace independently replays a recorded trace file.
func verifyTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return err
	}
	rep, err := tr.Verify(true)
	if err != nil {
		return fmt.Errorf("trace INVALID: %w", err)
	}
	fmt.Printf("trace OK: mesh(d=%d, n=%d), %d packets, %d steps, %d delivered, %d deflections\n",
		tr.Dim, tr.Side, len(tr.Packets), rep.Steps, rep.Delivered, rep.Deflections)
	fmt.Println("checks passed: hot-potato compliance, arc capacity, on-mesh moves, greediness (Definition 6)")
	return nil
}

func main() {
	// First SIGINT/SIGTERM: stop stepping and, with -checkpoint set, save a
	// final snapshot so the run continues later with -resume. Second
	// signal: default disposition (kill).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	body, args := runCtx, os.Args[1:]
	if len(args) > 0 && args[0] == "worker" {
		body, args = runWorker, args[1:]
	}
	if err := body(ctx, args); err != nil {
		fmt.Fprintln(os.Stderr, "hotpotato:", err)
		os.Exit(1)
	}
}

// run keeps the historical signature for tests and non-interruptible use.
func run(args []string) error { return runCtx(context.Background(), args) }

// printParams renders one catalog entry's parameter schema.
func printParams(params []spec.ParamDef) {
	for _, p := range params {
		constraint := ""
		switch {
		case len(p.Enum) > 0:
			constraint = " (" + strings.Join(p.Enum, ", ") + ")"
		case p.Min != nil && p.Max != nil:
			lo := "["
			if p.MinExcl {
				lo = "("
			}
			constraint = fmt.Sprintf(" in %s%v, %v]", lo, *p.Min, *p.Max)
		case p.Min != nil && p.MinExcl:
			constraint = fmt.Sprintf(" > %v", *p.Min)
		case p.Min != nil:
			constraint = fmt.Sprintf(" >= %v", *p.Min)
		}
		def := "required"
		if !p.Required {
			def = "default " + p.Default
		}
		fmt.Printf("      %-8s %-6s %s%s — %s\n", p.Name, p.Type, def, constraint, p.Doc)
	}
}

// listPolicies prints just the policy section of the catalog: every
// registered policy with its parameter schema (the parameterized families
// take -policy name:key=val,...).
func listPolicies() {
	c := spec.Catalog()
	fmt.Println("policies (-policy name[:key=val,...]):")
	for _, e := range c.Policies {
		fmt.Printf("  %-18s %s\n", e.Name, e.Doc)
		printParams(e.Params)
	}
}

// listWorkloads prints the discovery catalog: every registered policy,
// workload and arrival process with parameter schemas and defaults.
func listWorkloads() {
	listPolicies()
	c := spec.Catalog()
	fmt.Println("\nworkloads (-workload name[:key=val,...]):")
	for _, e := range c.Workloads {
		suffix := ""
		if e.FixedSize {
			suffix = " [fixed size: rejects -k]"
		}
		fmt.Printf("  %-18s %s%s\n", e.Name, e.Doc, suffix)
		printParams(e.Params)
	}
	fmt.Println("\narrival processes (-arrivals \"proc[:key=val,...][;proc2:...]\"):")
	for _, e := range c.Arrivals {
		fmt.Printf("  %-18s %s\n", e.Name, e.Doc)
		printParams(e.Params)
	}
	fmt.Printf("\nvalidation levels: %s\n", strings.Join(c.Validation, ", "))
	fmt.Printf("fault fates:       %s\n", strings.Join(c.Fates, ", "))
}

// report prints the run summary: one layout whichever engine ran, with the
// sharding and fault sections present when the spec asked for them.
func report(h *engine.Run, es engine.Spec, wl string, res *sim.Result, runErr error) {
	m, packets := h.Mesh(), h.Packets()
	switch {
	case es.DistWorkers > 0:
		fmt.Printf("shards:      %s across %d worker processes\n", es.Grid, es.DistWorkers)
	case h.Sim() == nil:
		fmt.Printf("shards:      %s (%d shard goroutines)\n", es.Grid, es.Grid.Count())
	}
	fmt.Printf("mesh:        %v (diameter %d)\n", m, m.Diameter())
	fmt.Printf("policy:      %s\n", h.Policy().Name())
	if es.ResumeFrom != "" {
		// The initial configuration is gone; distance-derived statistics
		// would be relative to the restore point, not the original run.
		fmt.Printf("workload:    %s (resumed), k=%d\n", wl, res.Total)
		fmt.Printf("steps:       %d\n", res.Steps)
	} else {
		fmt.Printf("workload:    %s, k=%d, dmax=%d\n", wl, res.Total, workload.MaxDistance(m, packets))
		fmt.Printf("steps:       %d (instance lower bound %d)\n", res.Steps, bound.Instance(m, packets))
	}
	fmt.Printf("delivered:   %d/%d\n", res.Delivered, res.Total)
	fmt.Printf("deflections: %d (of %d hops)\n", res.TotalDeflections, res.TotalHops)
	fmt.Printf("max load:    %d packets in one node\n", res.MaxNodeLoad)
	fmt.Printf("state hash:  %016x\n", h.StateHash())
	if h.Dist() != nil {
		fmt.Printf("recoveries:  %d\n", h.Dist().Recoveries())
	}
	if es.Fault != nil {
		fmt.Printf("faults:      %d link failures, %d node failures over the run\n",
			res.LinkFailures, res.NodeFailures)
		fmt.Printf("degraded:    %d dropped (%d crash, %d unreachable, %d stranded, %d at injection), %d absorbed\n",
			res.Dropped, res.DroppedCrash, res.DroppedUnreachable, res.DroppedStranded, res.DroppedInject,
			res.Absorbed)
		fmt.Printf("reroutes:    %d packet-steps with no surviving good arc\n", res.Reroutes)
	}
	if res.Livelocked {
		fmt.Println("LIVELOCK detected: the configuration repeated")
	}
	if res.HitMaxSteps {
		fmt.Println("step budget exhausted before completion")
	}
	if res.DeadlineExceeded {
		fmt.Println("wall-clock budget exhausted before completion")
	}
	if runErr != nil { // context cancelled: a signal stopped the run
		if es.CheckpointPath != "" {
			fmt.Printf("interrupted at step %d; state saved to %s — rerun with -resume to continue\n", res.Steps, es.CheckpointPath)
		} else {
			fmt.Printf("interrupted at step %d (no -checkpoint set, progress not saved)\n", res.Steps)
		}
	}
	if name, b := analysis.BatchBound(es.Dim, es.Side, res.Total, es.Torus, es.Workload.Arrivals != nil); name != "" {
		prec := 4
		if es.Dim > 2 { // the d-dimensional bound is orders of magnitude looser
			prec = 6
		}
		fmt.Printf("%-12s bound %.0f, measured/bound = %.*f\n", name+":", b, prec, float64(res.Steps)/b)
	}
}

// closeFlushed runs flush, which finishes writing a trace into f, then closes f.
func closeFlushed(f *os.File, flush func() error) error {
	if err := flush(); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", f.Name(), err)
	}
	return f.Close()
}

// spawner starts a -dist run's worker processes; a test swaps it to
// inspect them.
var spawner = dshard.NewExecSpawner

func runCtx(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("hotpotato", flag.ContinueOnError)
	var (
		dim            = fs.Int("d", 2, "mesh dimension")
		side           = fs.Int("n", 16, "mesh side length")
		torus          = fs.Bool("torus", false, "torus (wraparound) connectivity instead of a mesh")
		k              = fs.Int("k", 64, "packet count (where the workload takes one)")
		policy         = fs.String("policy", "restricted", "routing policy")
		wl             = fs.String("workload", "uniform", "workload generator")
		seed           = fs.Int64("seed", 1, "random seed")
		maxSteps       = fs.Int("max-steps", 0, "step budget (0 = default)")
		track          = fs.Bool("track", false, "attach the potential tracker and report invariant checks")
		series         = fs.Bool("series", false, "with -track, print the per-step Phi/G/B/F series")
		validate       = fs.String("validate", "greedy", "validation level: off, basic, greedy, restricted")
		livelock       = fs.Bool("detect-livelock", true, "detect repeated configurations (deterministic policies)")
		traceOut       = fs.String("trace-out", "", "record the run to this trace file")
		verify         = fs.String("verify-trace", "", "verify a recorded trace file and exit (other flags ignored)")
		heatmap        = fs.Bool("heatmap", false, "print a per-node deflection heat map after the run (2-D only)")
		animate        = fs.Int("animate", 0, "print the first N steps as text frames (2-D only)")
		arrivals       = fs.String("arrivals", "", "continuous arrival traffic: proc[:key=val,...][;proc2:...], e.g. poisson:rate=0.02 (see -list-workloads)")
		arrivalsRecord = fs.String("arrivals-record", "", "with -arrivals, record every injection to this file (replay with -arrivals replay:file=...)")
		listWl         = fs.Bool("list-workloads", false, "print every registered policy, workload and arrival process with its parameter schema, then exit")
		listPol        = fs.Bool("list-policies", false, "print every registered policy with its parameter schema, then exit")
		conflictTrace  = fs.String("conflict-trace", "", "record every routing conflict (contenders, features, winner, deflections) to this CRC-framed JSONL file (see cmd/policylab)")
		shards         = fs.String("shards", "", "run the sharded engine with a PxQ spatial decomposition, e.g. 4x2 (2-D only; -checkpoint becomes a directory)")
		dist           = fs.Int("dist", 0, "with -shards, run distributed: this many worker processes (\"hotpotato worker\", started from this binary unless -listen is set) instead of the in-process shard barrier")
		listen         = fs.String("listen", "", "with -dist, start no workers: listen here (host:port, or a path for a unix socket) for external \"hotpotato worker\" processes to dial in")
		token          = fs.String("token", "", "with -dist, the shared secret workers must present")

		faultRate    = fs.Float64("fault-rate", 0, "per-link per-step failure probability (0 = no link flaps)")
		faultRepair  = fs.Float64("fault-repair", 0.05, "per-link per-step repair probability for downed links")
		faultMaxDown = fs.Int("fault-max-down", 0, "cap on concurrently failed links/nodes (0 = unlimited)")
		crashRate    = fs.Float64("crash-rate", 0, "per-node per-step crash probability (0 = no crashes)")
		faultScript  = fs.String("fault-script", "", "scripted fault events file (lines: <step> <link-down|link-up|node-down|node-up> <node> [dir])")
		faultFate    = fs.String("fault-fate", "drop", "fate of packets inside a crashing node: drop or absorb")
		maxWall      = fs.Duration("max-wall", 0, "wall-clock budget for the run (0 = unlimited)")

		ckptPath   = fs.String("checkpoint", "", "checkpoint file: saved periodically (-checkpoint-every) and on SIGINT/SIGTERM")
		ckptEvery  = fs.Int("checkpoint-every", 0, "with -checkpoint, save every N steps (0 = only on interrupt; a -dist run also saves on its coordinator's 256-step rollback cadence); saves are written behind the run, so the file may lag it by up to two saves until the run returns")
		ckptFormat = fs.String("checkpoint-format", "binary", "checkpoint encoding: binary or json")
		resume     = fs.Bool("resume", false, "restore state from -checkpoint before running (pass the same flags as the original run)")
		showVer    = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *showVer {
		fmt.Println(version.String("hotpotato"))
		return nil
	}
	if *listWl {
		listWorkloads()
		return nil
	}
	if *listPol {
		listPolicies()
		return nil
	}
	if *verify != "" {
		return verifyTrace(*verify)
	}
	if (*ckptEvery != 0 || *resume) && *ckptPath == "" {
		return fmt.Errorf("-checkpoint-every and -resume need -checkpoint")
	}
	if (*listen != "" || *token != "") && *dist == 0 {
		return fmt.Errorf("-listen and -token need -dist")
	}
	if *resume && (*track || *traceOut != "" || *heatmap || *animate > 0) {
		// These observers reconstruct per-packet state from the initial
		// configuration, which a mid-run snapshot no longer has.
		return fmt.Errorf("-resume cannot be combined with -track, -trace-out, -heatmap or -animate")
	}

	ws, err := spec.ParseWorkloadSpec(*wl)
	if err != nil {
		return err
	}
	ws.Arrivals, err = spec.ParseArrivalSpec(*arrivals)
	if err != nil {
		return err
	}
	kSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "k" {
			kSet = true
		}
	})
	if kSet && ws.FixedSize() {
		return fmt.Errorf("workload %q derives its packet count from the mesh; drop -k (parameters go in the workload spec, e.g. full-load:per-node=2)", ws.Name)
	}
	if ws.Arrivals != nil && (*track || *traceOut != "") {
		return fmt.Errorf("-arrivals cannot be combined with -track or -trace-out (both reconstruct runs from the initial batch)")
	}
	if *arrivalsRecord != "" && ws.Arrivals == nil {
		return fmt.Errorf("-arrivals-record needs -arrivals")
	}
	faults := &spec.FaultConfig{Rate: *faultRate, Repair: *faultRepair, MaxDown: *faultMaxDown, CrashRate: *crashRate, Fate: *faultFate}
	if *faultScript != "" {
		text, err := os.ReadFile(*faultScript)
		if err != nil {
			return err
		}
		faults.Script = string(text)
	}
	if !faults.Enabled() {
		faults = nil // and -fault-fate / -fault-repair go unread
	}

	// Every flag that describes the run lands in one engine.Spec; which
	// engine executes it and which features it refuses is the opener's call.
	es := engine.Spec{
		Dim:              *dim,
		Side:             *side,
		Torus:            *torus,
		Policy:           *policy,
		Validation:       *validate,
		Workload:         ws,
		K:                *k,
		Seed:             *seed,
		MaxSteps:         *maxSteps,
		MaxWall:          *maxWall,
		DetectLivelock:   *livelock,
		Fault:            faults,
		DistWorkers:      *dist,
		CheckpointPath:   *ckptPath,
		CheckpointEvery:  *ckptEvery,
		CheckpointFormat: *ckptFormat,
	}
	if *shards != "" {
		if es.Grid, err = shard.ParseGrid(*shards); err != nil {
			return err
		}
	}
	if *resume {
		es.ResumeFrom = *ckptPath
	}
	if *dist > 0 {
		// External workers dial in at -listen; otherwise each slot is a quiet
		// "hotpotato worker" child of this binary, and the coordinator logs nothing.
		es.Dist = &dshard.Options{Listen: *listen, Token: *token}
		if *listen == "" {
			bin, err := os.Executable()
			if err != nil {
				return err
			}
			es.Dist.Spawn = spawner(bin, "worker", "-token", *token, "-quiet").Spawn
		}
	}
	h, err := engine.Open(es)
	if err != nil {
		return err
	}
	defer h.Close()
	if *listen != "" {
		fmt.Printf("listening on %s\n", h.Dist().Addr())
	}
	m, pol, packets, src := h.Mesh(), h.Policy(), h.Packets(), h.Source()
	e := h.Sim()
	if e == nil && (*track || *traceOut != "" || *heatmap || *animate > 0 || *conflictTrace != "") {
		return fmt.Errorf("%w: -shards cannot be combined with -track, -trace-out, -heatmap, -animate or -conflict-trace (they observe one engine's move stream)", engine.ErrUnsupported)
	}

	var arrivalsFlush func() error
	if *arrivalsRecord != "" {
		f, err := os.Create(*arrivalsRecord)
		if err != nil {
			return err
		}
		tw, err := traffic.NewTraceWriter(f, m)
		if err != nil {
			f.Close()
			return err
		}
		src.SetTrace(tw)
		arrivalsFlush = func() error { return closeFlushed(f, tw.Flush) }
	}
	var conflictRec *policylab.Recorder
	var conflictFlush func() error
	if *conflictTrace != "" {
		f, err := os.Create(*conflictTrace)
		if err != nil {
			return err
		}
		cw, err := policylab.NewWriter(f, policylab.TraceHeader{
			Dim: *dim, Side: *side, Policy: pol.Name(), Seed: *seed,
		})
		if err != nil {
			f.Close()
			return err
		}
		conflictRec = policylab.NewRecorder(0)
		conflictRec.Spill(cw)
		e.SetConflictObserver(conflictRec)
		conflictFlush = func() error { return closeFlushed(f, cw.Flush) }
	}
	var tracker *core.Tracker
	if *track {
		tracker = core.NewTracker(m, packets, core.TrackerOptions{RecordSeries: *series, SelfCheckEvery: 64})
		e.AddObserver(tracker)
	}
	var recorder *trace.Recorder
	if *traceOut != "" {
		recorder = trace.NewRecorder(m, packets)
		e.AddObserver(recorder)
	}
	var deflections *viz.DeflectionCounter
	if *heatmap {
		if *dim != 2 {
			return fmt.Errorf("-heatmap needs a 2-dimensional mesh")
		}
		deflections = viz.NewDeflectionCounter(m)
		e.AddObserver(deflections)
	}
	var animator *viz.Animator
	if *animate > 0 {
		animator, err = viz.NewAnimator(m, os.Stdout, *animate)
		if err != nil {
			return err
		}
		e.AddObserver(animator)
	}
	if *resume {
		p := h.Progress()
		fmt.Printf("resumed:     %s at step %d, %d packets in flight\n", *ckptPath, p.Time, p.Live)
	}

	res, runErr := h.Run(ctx, nil)
	if res == nil {
		return runErr
	}
	if runErr == nil && animator != nil && animator.Err() != nil {
		return animator.Err()
	}
	if recorder != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := closeFlushed(f, func() error { return recorder.Trace().Write(f) }); err != nil {
			return err
		}
		fmt.Printf("trace:       written to %s\n", *traceOut)
	}
	if conflictRec != nil {
		if err := conflictRec.Err(); err != nil {
			return fmt.Errorf("conflict trace %s: %w", *conflictTrace, err)
		}
		if err := conflictFlush(); err != nil {
			return err
		}
		total, contenders, deflected, db, da := conflictRec.Stats()
		fmt.Printf("conflicts:   %d recorded to %s (%d contenders, %d deflected, potential drop %d)\n",
			total, *conflictTrace, contenders, deflected, db-da)
	}

	report(h, es, *wl, res, runErr)
	if src != nil {
		fmt.Printf("arrivals:    %d generated, %d injected, backlog %d (max %d)\n",
			src.Generated(), src.Injected(), src.Backlog(), src.MaxBacklog())
		if arrivalsFlush != nil {
			if err := arrivalsFlush(); err != nil {
				return err
			}
			fmt.Printf("inj trace:   written to %s\n", *arrivalsRecord)
		}
	}
	if tracker != nil {
		v := tracker.Violations()
		fmt.Printf("potential:   Phi(0)=%d, M=%d, final Phi=%d\n", tracker.Phi0(), tracker.M(), tracker.Phi())
		fmt.Printf("invariants:  %s\n", v.String())
		fmt.Printf("min phi:     %d, min spare: %d\n", tracker.MinPhi(), tracker.MinSpare())
		if *series {
			fmt.Println("\n  t     Phi(t+1)   G(t)   B(t)   F(t)   adv   defl")
			for _, s := range tracker.Series() {
				fmt.Printf("%5d %10d %6d %6d %6d %5d %6d\n",
					s.Time, s.PhiAfter, s.Good, s.Bad, s.SurfaceArcs, s.Advanced, s.Deflected)
			}
		}
	}
	if deflections != nil {
		out, err := viz.Heatmap(m, deflections.Counts(),
			fmt.Sprintf("\ndeflection heat map (%d deflections total):", deflections.Total()))
		if err != nil {
			return err
		}
		fmt.Print(out)
	}
	return runErr // non-nil exactly when a signal interrupted the run
}
