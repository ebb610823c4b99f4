// Package benchfmt parses the text output of `go test -bench` into a
// structured report, so benchmark runs can be committed as JSON
// (BENCH_PR2.json) and diffed across PRs by the regression harness.
//
// The format it understands is the standard one-line-per-benchmark form:
//
//	BenchmarkE8FullLoad-8   8776   257369 ns/op   72969 B/op   286 allocs/op   63.0 steps
//
// plus the goos/goarch/pkg/cpu header lines. Unknown lines are skipped, so
// the parser is safe to point at raw `go test` output including PASS/ok
// trailers and subtest logging.
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name as printed, without the "Benchmark"
	// prefix and without the -procs suffix (e.g. "E8FullLoad" or
	// "ValidationOverhead/greedy").
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix of the result line (1 when absent).
	Procs int `json:"procs"`
	// Iterations is b.N for the measured run.
	Iterations int64 `json:"iterations"`
	// Metrics maps unit -> value for every "<value> <unit>" pair on the
	// line: ns/op, B/op, allocs/op, and any b.ReportMetric custom units
	// such as steps or hops/s.
	Metrics map[string]float64 `json:"metrics"`
}

// Report is a full parsed benchmark run.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Parse reads `go test -bench` output and returns the structured report.
// It fails only on a malformed benchmark line, not on interleaved non-
// benchmark output.
func Parse(r io.Reader) (*Report, error) {
	rep := &Report{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok, err := parseLine(line)
			if err != nil {
				return nil, err
			}
			if ok {
				rep.Benchmarks = append(rep.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	return rep, nil
}

// parseLine parses one result line. A "Benchmark..." line with no fields
// after the name (the bare announcement printed under -v) is skipped, not
// an error.
func parseLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Benchmark{}, false, nil
	}
	name, procs := splitProcs(strings.TrimPrefix(fields[0], "Benchmark"))
	iters, err := strconv.ParseUint(fields[1], 10, 63) // b.N is never negative
	if err != nil {
		return Benchmark{}, false, fmt.Errorf("benchfmt: bad iteration count in %q: %w", line, err)
	}
	b := Benchmark{Name: name, Procs: procs, Iterations: int64(iters), Metrics: make(map[string]float64)}
	rest := fields[2:]
	if len(rest)%2 != 0 {
		return Benchmark{}, false, fmt.Errorf("benchfmt: odd value/unit pairing in %q", line)
	}
	for i := 0; i < len(rest); i += 2 {
		v, err := strconv.ParseFloat(rest[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("benchfmt: bad value %q in %q: %w", rest[i], line, err)
		}
		b.Metrics[rest[i+1]] = v
	}
	return b, true, nil
}

// splitProcs splits the trailing "-<procs>" GOMAXPROCS marker off a
// benchmark name. Names may themselves contain dashes, so only a trailing
// all-digit segment counts.
func splitProcs(name string) (string, int) {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name, 1
	}
	p, err := strconv.Atoi(name[i+1:])
	if err != nil || p <= 0 {
		return name, 1
	}
	return name[:i], p
}

// Lookup returns the first benchmark with the given name.
func (r *Report) Lookup(name string) (Benchmark, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}
