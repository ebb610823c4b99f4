// Command experiments regenerates the reproduction: the tables E1-E24 of
// the analysis registry (one table or table group per claim of the paper,
// indexed in DESIGN.md), printed as aligned text, CSV or markdown. With
// -out DIR it also writes DIR/REPORT.md: every selected experiment's tables
// in markdown, then ASCII renderings of the paper's Figures 1-6.
//
// Every theorem bound and potential invariant is asserted inside the
// experiment runners. Experiments run one after another and the first
// failure stops the command before the report is written, so a report that
// exists certifies that every check passed. results/REPORT.md is the full
// report at seed 1; `go test ./cmd/experiments` regenerates it and compares
// it byte for byte (`-update` rewrites it).
//
// Usage:
//
//	experiments                 # run everything, full size
//	experiments -quick          # CI-sized runs
//	experiments -exp E1,E5      # a subset
//	experiments -csv            # CSV instead of text
//	experiments -list           # list experiments and claims
//	experiments -out results    # also write results/REPORT.md
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hotpotato/internal/analysis"
	"hotpotato/internal/checkpoint"
	"hotpotato/internal/engine"
	"hotpotato/internal/mesh"
	"hotpotato/internal/profiling"
	"hotpotato/internal/spec"
	"hotpotato/internal/version"
	"hotpotato/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		quick    = fs.Bool("quick", false, "smaller meshes and fewer trials")
		exp      = fs.String("exp", "all", "comma-separated experiment ids (e.g. E1,E7) or 'all'")
		seed     = fs.Int64("seed", 1, "base seed for all trials")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
		markdown = fs.Bool("markdown", false, "emit GitHub-flavored markdown tables")
		list     = fs.Bool("list", false, "list available experiments and exit")
		outDir   = fs.String("out", "", "also write REPORT.md (tables and figures) into this directory")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		showVer  = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVer {
		fmt.Println(version.String("experiments"))
		return nil
	}
	if *cpuProf != "" || *memProf != "" {
		stopProf, err := profiling.Start(*cpuProf, *memProf)
		if err != nil {
			return err
		}
		defer func() {
			if err := stopProf(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	if *list {
		for _, e := range analysis.Experiments() {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}

	var selected []analysis.Experiment
	if *exp == "all" {
		selected = analysis.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			id = strings.TrimSpace(id)
			e, ok := analysis.Lookup(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	// The report header names every input that shapes the tables.
	invocation := fmt.Sprintf("experiments -seed %d", *seed)
	if *quick {
		invocation += " -quick"
	}
	if *exp != "all" {
		invocation += " -exp " + *exp
	}
	var report strings.Builder
	report.WriteString("# Reproduction report\n\n")
	fmt.Fprintf(&report, "Generated by `%s`. A table per claim; every theorem bound and potential\n", invocation)
	report.WriteString("invariant was asserted during generation — this report existing at all\n")
	report.WriteString("means every check passed.\n\n")

	cfg := analysis.Config{Quick: *quick, SeedBase: *seed}
	for _, e := range selected {
		start := time.Now()
		tables, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Printf("=== %s: %s ===\nclaim: %s\n\n", e.ID, e.Title, e.Claim)
		fmt.Fprintf(&report, "## %s — %s\n\nClaim: %s\n\n", e.ID, e.Title, e.Claim)
		for _, tb := range tables {
			switch {
			case *csv:
				err = tb.WriteCSV(os.Stdout)
			case *markdown:
				err = tb.WriteMarkdown(os.Stdout)
			default:
				err = tb.WriteText(os.Stdout)
			}
			if err != nil {
				return err
			}
			fmt.Println()
			if err := tb.WriteMarkdown(&report); err != nil {
				return err
			}
			report.WriteString("\n")
		}
		fmt.Println()
		fmt.Fprintf(os.Stderr, "(%s completed in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *outDir == "" {
		return nil
	}

	report.WriteString("## Figures\n\nThe paper's Figures 1-6 as ASCII renderings.\n\n```\n")
	if err := writeFigures(&report, 8, 3); err != nil {
		return err
	}
	report.WriteString("```\n")
	// Temp file + rename: a reader never sees a partial report.
	return checkpoint.WriteFile(filepath.Join(*outDir, "REPORT.md"), []byte(report.String()))
}

// writeFigures renders the paper's six definitional figures, Figures 1-4 on
// an n x n mesh. Figures 3 and 4 come from a live snapshot of a congested
// run drawn from seed, so the bad-node areas and surface arcs are real.
func writeFigures(w io.Writer, n int, seed int64) error {
	m, loads, t, err := congestedSnapshot(n, seed)
	if err != nil {
		return err
	}
	f1, err1 := viz.Figure1(n)
	f2, err2 := viz.Figure2(n)
	f3, err3 := viz.Figure3(m, loads)
	f4, err4 := viz.Figure4(m, loads)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n(live snapshot of a corner-rush run at step %d)\n\n%s\n%s\n%s\n%s\n",
		f1, f2, t, f3, f4, viz.Figure5(), viz.Figure6())
	return err
}

// congestedSnapshot runs a corner-rush instance until the first step with a
// maximal number of bad nodes (within a small horizon) and returns the
// per-node loads at that point. Like every frontend, it draws the workload
// from seed and runs the engine with seed+1.
func congestedSnapshot(n int, seed int64) (*mesh.Mesh, []int, int, error) {
	horizon := 4 * n
	r, err := engine.Open(engine.Spec{
		Dim: 2, Side: n, Policy: "restricted", Validation: "restricted",
		Workload: spec.WorkloadSpec{Name: "corner-rush"}, K: n * n / 3, Seed: seed,
		MaxSteps: horizon - 1, // the loads after the last step are not looked at
	})
	if err != nil {
		return nil, nil, 0, err
	}
	defer r.Close()
	m, e := r.Mesh(), r.Sim()
	var best []int
	bestBad, bestT := -1, 0
	look := func() {
		loads := make([]int, m.Size())
		bad := 0
		for id := mesh.NodeID(0); int(id) < m.Size(); id++ {
			l := len(e.PacketsAt(id))
			loads[id] = l
			if l > m.Dim() {
				bad++
			}
		}
		if bad > bestBad {
			bestBad, bestT, best = bad, e.Time(), loads
		}
	}
	look()
	if _, err := r.Run(context.Background(), look); err != nil {
		return nil, nil, 0, err
	}
	return m, best, bestT, nil
}
