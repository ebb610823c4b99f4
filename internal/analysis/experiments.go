package analysis

import (
	"fmt"
	"slices"

	"hotpotato/internal/stats"
)

// Config scales the experiment harness.
type Config struct {
	// Quick shrinks mesh sizes and trial counts for CI-speed runs; the
	// full-size runs are what EXPERIMENTS.md records.
	Quick bool
	// SeedBase offsets all trial seeds for independent replications.
	SeedBase int64
}

func (c Config) trials(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Experiment is one reproducible result: a paper claim plus the code that
// regenerates the table quantifying it.
type Experiment struct {
	// ID is the experiment identifier from DESIGN.md (E1..E24).
	ID string
	// Title is a one-line description.
	Title string
	// Claim is the paper statement being reproduced.
	Claim string
	// Run regenerates the tables.
	Run func(cfg Config) ([]*stats.Table, error)
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("analysis: duplicate experiment %s", e.ID))
	}
	registry[e.ID] = e
}

// Experiments returns all registered experiments ordered by ID.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	// Order E1..E24 numerically, not lexically.
	slices.SortFunc(out, func(a, b Experiment) int {
		return expOrder(a.ID) - expOrder(b.ID)
	})
	return out
}

func expOrder(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "E%d", &n); err != nil {
		return 1 << 20
	}
	return n
}

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

func ratio(a float64, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
