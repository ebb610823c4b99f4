// Command figures renders ASCII versions of the paper's six definitional
// figures. Figures 3 and 4 are rendered from a live snapshot of a
// congested simulation so the bad-node areas and surface arcs are real.
//
// Usage:
//
//	figures           # all figures
//	figures -fig 4    # one figure
//	figures -n 12     # mesh side for figures 1-4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"hotpotato/internal/engine"
	"hotpotato/internal/mesh"
	"hotpotato/internal/spec"
	"hotpotato/internal/version"
	"hotpotato/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	var (
		fig  = fs.Int("fig", 0, "figure number 1-6 (0 = all)")
		n    = fs.Int("n", 8, "mesh side for figures 1-4")
		seed = fs.Int64("seed", 3, "seed for the live snapshot of figures 3-4")
		ver  = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ver {
		fmt.Println(version.String("figures"))
		return nil
	}
	want := func(i int) bool { return *fig == 0 || *fig == i }

	if want(1) {
		out, err := viz.Figure1(*n)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if want(2) {
		out, err := viz.Figure2(*n)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if want(3) || want(4) {
		m, loads, t, err := congestedSnapshot(*n, *seed)
		if err != nil {
			return err
		}
		fmt.Printf("(live snapshot of a corner-rush run at step %d)\n\n", t)
		if want(3) {
			out, err := viz.Figure3(m, loads)
			if err != nil {
				return err
			}
			fmt.Println(out)
		}
		if want(4) {
			out, err := viz.Figure4(m, loads)
			if err != nil {
				return err
			}
			fmt.Println(out)
		}
	}
	if want(5) {
		fmt.Println(viz.Figure5())
	}
	if want(6) {
		fmt.Println(viz.Figure6())
	}
	return nil
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
