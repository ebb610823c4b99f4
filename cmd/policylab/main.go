// Command policylab is the decision-analysis front end over
// internal/policylab: record conflict-level decision traces, replay
// recorded windows under alternative priority orders, and search the
// parameterized weighted policy family.
//
// Usage:
//
//	policylab trace -n 12 -policy restricted -workload none \
//	    -arrivals 'adversary:rho=3,sigma=6,until=200' \
//	    -o /tmp/conflicts.jsonl -checkpoint /tmp/mid.ckpt -checkpoint-at 100
//	policylab trace -dump /tmp/conflicts.jsonl
//	policylab counterfactual -checkpoint /tmp/mid.ckpt -policy restricted \
//	    -arrivals 'adversary:rho=3,sigma=6,until=200' \
//	    -alt oldest,nearest,'weighted:age=1,restrict=2' -steps 128
//	policylab search -n 10 -generations 5 -population 12 -seed 7 -verify-steps 2000
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"hotpotato/internal/checkpoint"
	"hotpotato/internal/engine"
	"hotpotato/internal/policylab"
	"hotpotato/internal/policylab/search"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
	"hotpotato/internal/version"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "policylab:", err)
		os.Exit(1)
	}
}

const usage = `usage: policylab <command> [flags]

commands:
  trace           run a simulation recording its routing conflicts
  counterfactual  replay a checkpointed window under alternative policies
  search          search the weighted policy family against a workload panel

run 'policylab <command> -h' for the command's flags`

func run(args []string) error {
	if len(args) == 0 {
		fmt.Println(usage)
		return nil
	}
	switch args[0] {
	case "trace":
		return runTrace(args[1:])
	case "counterfactual":
		return runCounterfactual(args[1:])
	case "search":
		return runSearch(args[1:])
	case "-version", "version":
		fmt.Println(version.String("policylab"))
		return nil
	case "-h", "-help", "--help", "help":
		fmt.Println(usage)
		return nil
	default:
		return fmt.Errorf("unknown command %q\n%s", args[0], usage)
	}
}

// runTrace runs one problem with the conflict tap attached, spilling every
// conflict to -o and optionally checkpointing mid-run (the seed for a later
// counterfactual). With -dump it decodes an existing trace instead.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("policylab trace", flag.ContinueOnError)
	var (
		dim      = fs.Int("d", 2, "mesh dimension")
		side     = fs.Int("n", 12, "mesh side length")
		k        = fs.Int("k", 64, "packet count (where the workload takes one)")
		policy   = fs.String("policy", "restricted", "routing policy spec")
		wl       = fs.String("workload", "uniform", "workload spec")
		arrivals = fs.String("arrivals", "", "arrival spec (proc[:key=val,...][;...])")
		seed     = fs.Int64("seed", 1, "random seed")
		maxSteps = fs.Int("max-steps", 0, "step budget (0 = default)")
		out      = fs.String("o", "", "write the conflict trace to this file")
		ckpt     = fs.String("checkpoint", "", "save a checkpoint to this file at -checkpoint-at")
		ckptAt   = fs.Int("checkpoint-at", 0, "step to checkpoint at (with -checkpoint)")
		top      = fs.Int("top", 5, "print the N most contended recorded conflicts")
		dump     = fs.String("dump", "", "decode an existing trace file and print its summary (other flags ignored)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dump != "" {
		return dumpTrace(*dump, *top)
	}
	if *ckpt == "" && *ckptAt > 0 {
		return fmt.Errorf("-checkpoint-at needs -checkpoint")
	}

	ws, err := spec.ParseWorkloadSpec(*wl)
	if err != nil {
		return err
	}
	if ws.Arrivals, err = spec.ParseArrivalSpec(*arrivals); err != nil {
		return err
	}
	r, err := engine.Open(engine.Spec{
		Dim: *dim, Side: *side, Policy: *policy,
		Workload: ws, K: *k, Seed: *seed, MaxSteps: *maxSteps,
	})
	if err != nil {
		return err
	}
	defer r.Close()
	e, pol := r.Sim(), r.Policy()

	rec := policylab.NewRecorder(0)
	var flush func() error
	if *out != "" {
		f, err := os.Create(*out)
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
		rec.Spill(cw)
		flush = func() error {
			if err := cw.Flush(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}
	e.SetConflictObserver(rec)

	// The checkpoint lands exactly at -checkpoint-at: before the first step
	// when that is 0, else from the step hook once that step is done.
	saved := false
	due := func() bool { return *ckpt != "" && !saved && e.Time() == *ckptAt }
	save := func() error {
		snap, err := e.Snapshot()
		if err == nil {
			err = checkpoint.Save(*ckpt, snap, checkpoint.Binary)
		}
		if err != nil {
			return err
		}
		saved = true
		fmt.Printf("checkpoint:  step %d, %d in flight -> %s\n", e.Time(), e.Live(), *ckpt)
		return nil
	}
	if due() {
		if err := save(); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var saveErr error
	res, err := r.Run(ctx, func() {
		if due() {
			if saveErr = save(); saveErr != nil {
				cancel()
			}
		}
	})
	switch {
	case saveErr != nil:
		return saveErr
	case err != nil:
		return err
	case rec.Err() != nil:
		return rec.Err()
	}
	if flush != nil {
		if err := flush(); err != nil {
			return err
		}
	}
	if *ckpt != "" && !saved {
		return fmt.Errorf("the run ended at step %d, before -checkpoint-at %d: no checkpoint written to %s", e.Time(), *ckptAt, *ckpt)
	}

	total, contenders, deflected, db, da := rec.Stats()
	fmt.Printf("run:         policy %s, %s, %d steps, %d delivered\n", pol.Name(), r.Mesh(), e.Time(), res.Delivered)
	fmt.Printf("conflicts:   %d (%d contenders, %d deflected, potential drop %d)\n", total, contenders, deflected, db-da)
	if *out != "" {
		fmt.Printf("trace:       written to %s\n", *out)
	}
	printTopConflicts(rec.Records(), *top)
	return nil
}

// dumpTrace decodes a trace file and prints its summary and top conflicts.
func dumpTrace(path string, top int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	hdr, recs, err := policylab.ReadTrace(f)
	if err != nil {
		return err
	}
	var contenders, deflected, drop int64
	for i := range recs {
		contenders += int64(len(recs[i].Contenders))
		deflected += int64(recs[i].Deflected)
		drop += int64(recs[i].DistBefore - recs[i].DistAfter)
	}
	fmt.Printf("trace:       %s v%d, mesh(d=%d, n=%d), policy %s, seed %d\n",
		path, hdr.Version, hdr.Dim, hdr.Side, hdr.Policy, hdr.Seed)
	fmt.Printf("conflicts:   %d (%d contenders, %d deflected, potential drop %d)\n",
		len(recs), contenders, deflected, drop)
	printTopConflicts(recs, top)
	return nil
}

// printTopConflicts prints the most contended conflicts of the window.
func printTopConflicts(recs []sim.ConflictRecord, top int) {
	if top <= 0 || len(recs) == 0 {
		return
	}
	idx := make([]int, len(recs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ra, rb := &recs[idx[a]], &recs[idx[b]]
		if len(ra.Contenders) != len(rb.Contenders) {
			return len(ra.Contenders) > len(rb.Contenders)
		}
		return ra.Time < rb.Time
	})
	if top > len(idx) {
		top = len(idx)
	}
	fmt.Printf("\nmost contended conflicts (of the retained window):\n")
	fmt.Println("    t   node  pkts  defl  dPhi  contenders (id age dist good R; * = advanced)")
	for _, i := range idx[:top] {
		r := &recs[i]
		parts := make([]string, len(r.Contenders))
		for j, c := range r.Contenders {
			star, rr := " ", " "
			if c.Advanced {
				star = "*"
			}
			if c.Restricted {
				rr = "R"
			}
			parts[j] = fmt.Sprintf("%s#%d(a%d d%d g%d%s)", star, c.ID, c.Age, c.Dist, c.GoodCount, rr)
		}
		fmt.Printf("%5d %6d %5d %5d %5d  %s\n",
			r.Time, r.Node, len(r.Contenders), r.Deflected, r.DistBefore-r.DistAfter, strings.Join(parts, " "))
	}
}

// runCounterfactual loads a checkpoint and replays the window under the
// baseline and each alternative, printing the divergence table.
func runCounterfactual(args []string) error {
	fs := flag.NewFlagSet("policylab counterfactual", flag.ContinueOnError)
	var (
		ckpt     = fs.String("checkpoint", "", "checkpoint file to replay from (required)")
		policy   = fs.String("policy", "restricted", "the original run's policy spec (must match the checkpoint)")
		alts     = fs.String("alt", "oldest,nearest", "comma-separated alternative policy specs")
		steps    = fs.Int("steps", policylab.DefaultReplaySteps, "window length in steps")
		arrivals = fs.String("arrivals", "", "the original run's arrival spec (required iff it had one)")
		jsonOut  = fs.String("json", "", "also write the full report as JSON to this file ('-' = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ckpt == "" {
		return fmt.Errorf("-checkpoint is required")
	}
	snap, err := checkpoint.Load(*ckpt)
	if err != nil {
		return err
	}
	as, err := spec.ParseArrivalSpec(*arrivals)
	if err != nil {
		return err
	}
	rep, err := policylab.Replay(snap, policylab.ReplayConfig{
		Baseline:     *policy,
		Alternatives: spec.SplitSpecList(*alts),
		Steps:        *steps,
		Arrivals:     as,
	})
	if err != nil {
		return err
	}
	printReplay(rep)
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if *jsonOut == "-" {
			fmt.Println(string(data))
		} else if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printReplay renders the divergence table.
func printReplay(rep *policylab.Report) {
	fmt.Printf("checkpoint:  step %d, %d packets in flight\n", rep.CheckpointTime, rep.Live)
	fmt.Printf("window:      %d steps\n\n", rep.Baseline.Steps)
	fmt.Println("  policy                                    delivered   defl   mean-delay   phi-L1   diverge@")
	b := rep.Baseline
	fmt.Printf("  %-40s %9d %6d %12.2f %8s %10s\n", b.Policy+" (baseline)", b.Delivered, b.Deflections, b.MeanDelay, "-", "-")
	for _, d := range rep.Alternatives {
		div := "never"
		if d.FirstDiverge >= 0 {
			div = "t+" + strconv.Itoa(d.FirstDiverge)
		}
		fmt.Printf("  %-40s %9d %6d %12.2f %8.1f %10s\n",
			d.Policy, d.Delivered, d.Deflections, d.MeanDelay, d.PotentialL1, div)
	}
}

// runSearch drives the evolutionary policy search and prints the result.
func runSearch(args []string) error {
	fs := flag.NewFlagSet("policylab search", flag.ContinueOnError)
	var (
		side     = fs.Int("n", 10, "mesh side length (2-D)")
		seedsF   = fs.String("seeds", "1,2", "comma-separated per-trial seeds")
		pop      = fs.Int("population", 12, "candidates per generation")
		gens     = fs.Int("generations", 5, "generations")
		elite    = fs.Int("elite", 3, "elites carried over per generation")
		immigr   = fs.Int("immigrants", 2, "fresh random candidates per generation")
		mut      = fs.Float64("mutation", 0.5, "Gaussian mutation scale")
		baseline = fs.String("baseline", "restricted", "baseline policy spec to beat")
		seed     = fs.Int64("seed", 1, "search RNG seed (full run is reproducible from it)")
		verify   = fs.Int("verify-steps", 4000, "verification-pass step budget (0 = skip)")
		jsonOut  = fs.String("json", "", "also write the full report as JSON to this file ('-' = stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var seeds []int64
	for _, s := range strings.Split(*seedsF, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("bad -seeds entry %q: %w", s, err)
		}
		seeds = append(seeds, v)
	}
	rep, err := search.Run(search.Config{
		Side:          *side,
		Seeds:         seeds,
		Population:    *pop,
		Generations:   *gens,
		Elite:         *elite,
		Immigrants:    *immigr,
		MutationScale: *mut,
		Baseline:      *baseline,
		Seed:          *seed,
		VerifySteps:   *verify,
	})
	if err != nil {
		return err
	}
	printSearch(rep)
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if *jsonOut == "-" {
			fmt.Println(string(data))
		} else if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printSearch renders the search report.
func printSearch(rep *search.Report) {
	fmt.Printf("search:      %d generations x %d candidates on a %dx%d mesh, %d unique policies evaluated (seed %d)\n",
		rep.Config.Generations, rep.Config.Population, rep.Config.Side, rep.Config.Side, rep.Evaluated, rep.Config.Seed)
	for _, g := range rep.History {
		fmt.Printf("  gen %2d  best fitness %.4f  %s\n", g.Gen, g.Fitness, g.Best)
	}
	fmt.Printf("\nbaseline:    %s\n", rep.Baseline.Spec)
	fmt.Printf("best:        %s (fitness %.4f; < 1 beats the baseline on average)\n\n", rep.Best.Spec, rep.Best.Fitness)
	fmt.Println("  panel entry          best        baseline")
	for _, e := range rep.Config.Panel {
		fmt.Printf("  %-18s %9.2f %14.2f\n", e.Name, rep.Best.Scores[e.Name], rep.Baseline.Scores[e.Name])
	}
	if len(rep.Wins) == 0 {
		fmt.Println("\nno workload/metric pair beat the baseline")
	} else {
		fmt.Println()
		for _, w := range rep.Wins {
			fmt.Printf("beats baseline on %s: %.2f < %.2f (%+.1f%%)\n",
				w.Entry, w.Score, w.Baseline, 100*(w.Score-w.Baseline)/w.Baseline)
		}
	}
	if v := rep.Verification; v != nil {
		held := "HELD"
		if !v.Property8Held {
			held = fmt.Sprintf("VIOLATED %d times", v.Property8Violations)
		}
		fmt.Printf("\nverification: Property 8 (potential decrease) %s for %s over %d steps (%s)\n",
			held, v.Policy, v.Steps, v.Violations)
	}
}
