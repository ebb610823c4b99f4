package benchfmt

import (
	"strings"
	"testing"
)

// FuzzParseBench hammers the benchmark-output parser with arbitrary text.
// Parse sits on the untrusted boundary of the regression harness — it is
// pointed at raw `go test` output and at JSON baselines from disk — so it
// must never panic, and what it does accept must satisfy the parser's own
// invariants (a "Benchmark" prefix stripped, positive procs, metrics in
// value/unit pairs).
func FuzzParseBench(f *testing.F) {
	f.Add("BenchmarkE8FullLoad-8   8776   257369 ns/op   72969 B/op   286 allocs/op   63.0 steps\n")
	f.Add("goos: linux\ngoarch: amd64\npkg: hotpotato/internal/sim\ncpu: weird cpu - with-dashes\n")
	f.Add("BenchmarkName 10\nPASS\nok  \thotpotato\t0.5s\n")
	f.Add("BenchmarkOnly\n")                             // bare -v announcement
	f.Add("BenchmarkOdd 5 123 ns/op trailing\n")         // odd value/unit pairing
	f.Add("BenchmarkBadIter notanumber ns/op\n")         // bad iteration count
	f.Add("BenchmarkNaN 1 NaN ns/op\n")                  // NaN parses as a float
	f.Add("BenchmarkSub/case-with-dash-16 4 2 ns/op\n")  // subtest + procs suffix
	f.Add("Benchmark-12 7 1 ns/op\n")                    // empty name, procs only
	f.Add("BenchmarkHuge 9223372036854775807 1 ns/op\n") // max int64 iterations
	f.Add("Benchmark -1\n")                              // negative iteration count
	f.Add(strings.Repeat("BenchmarkA 1 1 ns/op\n", 100))

	f.Fuzz(func(t *testing.T, input string) {
		rep, err := Parse(strings.NewReader(input))
		if err != nil {
			return // rejecting malformed input is fine; panicking is not
		}
		if rep == nil {
			t.Fatal("nil report with nil error")
		}
		for _, b := range rep.Benchmarks {
			if strings.HasPrefix(b.Name, "Benchmark") && b.Name != "Benchmark" {
				// The prefix must be stripped exactly once; a name that
				// still starts with it means the line was double-prefixed,
				// which Parse should have treated as part of the name only
				// when the input truly repeated it.
				if !strings.Contains(input, "Benchmark"+b.Name) {
					t.Errorf("name %q kept its Benchmark prefix", b.Name)
				}
			}
			if b.Procs <= 0 {
				t.Errorf("benchmark %q has non-positive procs %d", b.Name, b.Procs)
			}
			if b.Iterations < 0 {
				t.Errorf("benchmark %q has negative iterations %d", b.Name, b.Iterations)
			}
			if b.Metrics == nil {
				t.Errorf("benchmark %q has nil metrics map", b.Name)
			}
			if _, ok := rep.Lookup(b.Name); !ok {
				t.Errorf("benchmark %q not found by Lookup", b.Name)
			}
		}
	})
}
