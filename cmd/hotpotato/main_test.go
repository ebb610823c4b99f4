package main

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hotpotato/internal/engine"
)

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var sb strings.Builder
		tmp := make([]byte, 4096)
		for {
			n, rerr := r.Read(tmp)
			sb.Write(tmp[:n])
			if rerr != nil {
				break
			}
		}
		done <- sb.String()
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

func TestRunBasic(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-n", "8", "-k", "20", "-seed", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"mesh(d=2, n=8)", "delivered:   20/20", "theorem 20"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTracked(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-n", "8", "-k", "20", "-track", "-series", "-validate", "restricted"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"no violations", "Phi(t+1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunDDim(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-d", "3", "-n", "4", "-k", "30", "-policy", "fewest-good"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "section 5") {
		t.Errorf("3-D run missing section-5 bound:\n%s", out)
	}
}

func TestRunAllPoliciesAndWorkloads(t *testing.T) {
	for _, pol := range []string{"restricted", "restricted-det", "restricted-bfirst", "fewest-good", "random", "fixed", "dest-order", "farthest", "nearest"} {
		if _, err := capture(t, func() error {
			return run([]string{"-n", "6", "-k", "10", "-policy", pol})
		}); err != nil {
			t.Errorf("policy %s: %v", pol, err)
		}
	}
	for _, wl := range []string{"uniform", "partial-perm", "single-target", "hotspot", "local", "corner-rush"} {
		if _, err := capture(t, func() error {
			return run([]string{"-n", "6", "-k", "10", "-workload", wl})
		}); err != nil {
			t.Errorf("workload %s: %v", wl, err)
		}
	}
	// Fixed-size workloads derive k from the mesh and reject an explicit -k.
	for _, wl := range []string{"permutation", "transpose", "full-load"} {
		if _, err := capture(t, func() error {
			return run([]string{"-n", "6", "-workload", wl})
		}); err != nil {
			t.Errorf("workload %s: %v", wl, err)
		}
		if _, err := capture(t, func() error {
			return run([]string{"-n", "6", "-k", "10", "-workload", wl})
		}); err == nil {
			t.Errorf("workload %s: explicit -k accepted for a fixed-size workload", wl)
		}
	}
	// bit-reversal needs a power-of-two side.
	if _, err := capture(t, func() error {
		return run([]string{"-n", "8", "-workload", "bit-reversal"})
	}); err != nil {
		t.Errorf("bit-reversal: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-policy", "bogus"},
		{"-workload", "bogus"},
		{"-validate", "bogus"},
		{"-d", "0"},
		{"-n", "1"},
		{"-workload", "bit-reversal", "-n", "6"},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestTraceRoundTripCLI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	if _, err := capture(t, func() error {
		return run([]string{"-n", "8", "-k", "30", "-trace-out", path})
	}); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error {
		return run([]string{"-verify-trace", path})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "trace OK") {
		t.Errorf("verify output: %s", out)
	}
	// Corrupt the trace and expect failure.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error {
		return run([]string{"-verify-trace", path})
	}); err == nil {
		t.Error("corrupted trace accepted")
	}
	if _, err := capture(t, func() error {
		return run([]string{"-verify-trace", "/does/not/exist"})
	}); err == nil {
		t.Error("missing trace accepted")
	}
}

func TestRunAnimate(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-n", "6", "-k", "8", "-animate", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "t=0:") || !strings.Contains(out, "t=1:") {
		t.Errorf("animation frames missing:\n%s", out)
	}
	if _, err := capture(t, func() error {
		return run([]string{"-d", "3", "-n", "4", "-animate", "2"})
	}); err == nil {
		t.Error("3-D animate accepted")
	}
}

func TestRunHeatmap(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-n", "8", "-workload", "corner-rush", "-k", "20", "-heatmap"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "deflection heat map") {
		t.Errorf("heatmap missing:\n%s", out)
	}
	if _, err := capture(t, func() error {
		return run([]string{"-d", "3", "-n", "4", "-heatmap"})
	}); err == nil {
		t.Error("3-D heatmap accepted")
	}
}

// TestCheckpointResume proves the CLI kill-and-resume round trip: a run
// checkpointed periodically, then a second invocation restored from the
// last checkpoint, must finish with the identical outcome.
func TestCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	base := []string{"-n", "8", "-k", "48", "-seed", "5", "-policy", "restricted"}

	full, err := capture(t, func() error {
		return run(append([]string{"-checkpoint", ckpt, "-checkpoint-every", "4"}, base...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("periodic checkpoint missing: %v", err)
	}

	resumed, err := capture(t, func() error {
		return run(append([]string{"-resume", "-checkpoint", ckpt, "-checkpoint-every", "4"}, base...))
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resumed, "resumed:") {
		t.Fatalf("resume did not restore from the checkpoint:\n%s", resumed)
	}
	// The resumed remainder must land on the same totals as the full run.
	for _, line := range []string{"delivered:", "deflections:", "max load:"} {
		want := lineWith(t, full, line)
		got := lineWith(t, resumed, line)
		if want != got {
			t.Errorf("%s differs after resume:\nfull:    %s\nresumed: %s", line, want, got)
		}
	}
}

// TestCheckpointJSONFormat exercises the human-readable encoding end to end.
func TestCheckpointJSONFormat(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	args := []string{"-n", "6", "-k", "16", "-seed", "2",
		"-checkpoint", ckpt, "-checkpoint-every", "2", "-checkpoint-format", "json"}
	if _, err := capture(t, func() error { return run(args) }); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"packets"`) {
		t.Errorf("JSON checkpoint not human-readable:\n%.200s", data)
	}
}

// TestCheckpointFlagErrors: inconsistent checkpoint flags fail fast.
func TestCheckpointFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-resume"},                // -resume without -checkpoint
		{"-checkpoint-every", "5"}, // periodic saves with nowhere to go
		{"-checkpoint", "x", "-checkpoint-format", "xml"},
		{"-resume", "-checkpoint", "nope.ckpt", "-track"}, // observers need t=0
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestResumeRejectsFlagMismatch: restoring under different engine flags
// must fail with the snapshot guard, not silently diverge.
func TestResumeRejectsFlagMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := capture(t, func() error {
		return run([]string{"-n", "8", "-k", "48", "-seed", "5", "-checkpoint", ckpt, "-checkpoint-every", "4"})
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, func() error {
		return run([]string{"-n", "8", "-k", "48", "-seed", "6", "-resume", "-checkpoint", ckpt})
	}); err == nil || !strings.Contains(err.Error(), "pass the same flags") {
		t.Errorf("seed mismatch on resume: err = %v", err)
	}
}

// lineWith returns the first output line containing substr.
func lineWith(t *testing.T, out, substr string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, substr) {
			return line
		}
	}
	t.Fatalf("output has no line containing %q:\n%s", substr, out)
	return ""
}

// TestRunArrivals: continuous traffic through the -arrivals flag, plus the
// stats line it prints.
func TestRunArrivals(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-n", "8", "-workload", "none",
			"-arrivals", "poisson:rate=0.05,until=40", "-seed", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "arrivals:") {
		t.Errorf("arrivals stats line missing:\n%s", out)
	}
}

// TestRunParameterizedWorkload: the name:key=val,... syntax reaches the
// generator (and bad values die with the spec error format).
func TestRunParameterizedWorkload(t *testing.T) {
	if _, err := capture(t, func() error {
		return run([]string{"-n", "8", "-k", "10", "-workload", "hotspot:frac=0.9"})
	}); err != nil {
		t.Fatal(err)
	}
	_, err := capture(t, func() error {
		return run([]string{"-n", "8", "-k", "10", "-workload", "hotspot:frac=1.5"})
	})
	if err == nil || !strings.Contains(err.Error(), `parameter "frac"`) {
		t.Errorf("out-of-range frac: err = %v", err)
	}
}

// TestListWorkloads: the discovery flag prints every registry with schemas.
func TestListWorkloads(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-list-workloads"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hotspot", "frac", "adversary", "rho", "restricted", "poisson"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list-workloads output missing %q", want)
		}
	}
}

// TestArrivalsRecordReplay: every injection recorded to a trace, then
// replayed via the replay arrival process, must reproduce the run exactly.
func TestArrivalsRecordReplay(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "inj.trace")
	base := []string{"-n", "8", "-workload", "none", "-seed", "9"}
	rec, err := capture(t, func() error {
		return run(append([]string{"-arrivals", "bernoulli:rate=0.05,until=30",
			"-arrivals-record", trace}, base...))
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := capture(t, func() error {
		return run(append([]string{"-arrivals", "replay:file=" + trace}, base...))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"delivered:", "arrivals:"} {
		if lineWith(t, rec, line) != lineWith(t, rep, line) {
			t.Errorf("%s differs under replay:\nrecorded: %s\nreplayed: %s",
				line, lineWith(t, rec, line), lineWith(t, rep, line))
		}
	}
}

// TestArrivalsFlagErrors: inconsistent arrival flags fail fast.
func TestArrivalsFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-n", "8", "-arrivals", "poisson:rate=0.05", "-track"},
		{"-n", "8", "-arrivals-record", "x.trace"},
		{"-n", "8", "-arrivals", "bogus:rate=1"},
		{"-n", "8", "-arrivals", "poisson:rate=-2"},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// engineModes are the three ways hotpotato can execute a run; the summary
// lines below must not depend on which one did.
var engineModes = map[string][]string{
	"single": nil,
	"shards": {"-shards", "2x2"},
	"dist":   {"-shards", "2x2", "-dist", "2"},
}

var summaryLines = []string{"steps:", "delivered:", "deflections:", "max load:"}

// TestEngineModesAgree: the same problem prints the same summary on the
// single engine, on shard goroutines and on loopback workers — for a closed
// batch and, where the engine accepts them, for arrivals.
func TestEngineModesAgree(t *testing.T) {
	for name, problem := range map[string][]string{
		"batch":    {"-n", "8", "-workload", "full-load", "-policy", "random", "-seed", "4"},
		"arrivals": {"-n", "8", "-workload", "none", "-arrivals", "poisson:rate=0.05,until=30", "-seed", "4"},
	} {
		want, err := capture(t, func() error { return run(problem) })
		if err != nil {
			t.Fatal(err)
		}
		for mode, flags := range engineModes {
			got, err := capture(t, func() error { return run(append(flags[:len(flags):len(flags)], problem...)) })
			if name == "arrivals" && mode == "dist" {
				if !errors.Is(err, engine.ErrUnsupported) {
					t.Errorf("-dist with -arrivals: err = %v, want ErrUnsupported", err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mode, err)
			}
			lines := summaryLines
			if name == "arrivals" {
				lines = append(lines[:len(lines):len(lines)], "arrivals:")
			}
			for _, line := range lines {
				if lineWith(t, got, line) != lineWith(t, want, line) {
					t.Errorf("%s/%s: %q\nwant (single engine) %q", name, mode, lineWith(t, got, line), lineWith(t, want, line))
				}
			}
			if mode != "single" && !strings.Contains(got, "shards:      2x2") {
				t.Errorf("%s/%s: no shards line:\n%s", name, mode, got)
			}
		}
	}
}

// TestCheckpointResumeEveryEngine: the -checkpoint/-resume round trip on each
// engine, plus the .shards directory crossing between shard goroutines and
// loopback workers in both directions.
func TestCheckpointResumeEveryEngine(t *testing.T) {
	problem := []string{"-n", "8", "-workload", "full-load", "-policy", "random", "-seed", "6"}
	for _, tc := range []struct{ writer, reader string }{
		{"single", "single"}, {"shards", "shards"}, {"dist", "dist"}, {"shards", "dist"}, {"dist", "shards"},
	} {
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		with := func(mode string, extra ...string) []string {
			return append(append(extra, engineModes[mode]...), problem...)
		}
		full, err := capture(t, func() error {
			return run(with(tc.writer, "-checkpoint", ckpt, "-checkpoint-every", "4"))
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.writer, err)
		}
		resumed, err := capture(t, func() error {
			return run(with(tc.reader, "-resume", "-checkpoint", ckpt))
		})
		if err != nil {
			t.Fatalf("%s -> %s: %v", tc.writer, tc.reader, err)
		}
		if !strings.Contains(resumed, "resumed:") || strings.Contains(resumed, "at step 0,") {
			t.Fatalf("%s -> %s did not restore a mid-run checkpoint:\n%s", tc.writer, tc.reader, resumed)
		}
		for _, line := range summaryLines[1:] {
			if lineWith(t, resumed, line) != lineWith(t, full, line) {
				t.Errorf("%s -> %s: %q after resume, %q uninterrupted", tc.writer, tc.reader, lineWith(t, resumed, line), lineWith(t, full, line))
			}
		}
	}
}

// TestInterruptedBeforeFirstStep: a run whose context is already cancelled
// executes no step on any engine and, with -checkpoint, leaves the initial
// state behind — the "state saved to" line is true.
func TestInterruptedBeforeFirstStep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for mode, flags := range engineModes {
		ckpt := filepath.Join(t.TempDir(), "run.ckpt")
		args := append([]string{"-n", "8", "-k", "40", "-checkpoint", ckpt}, flags...)
		out, err := capture(t, func() error { return runCtx(ctx, args) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", mode, err)
		}
		if !strings.Contains(out, "interrupted at step 0; state saved to "+ckpt) {
			t.Errorf("%s: no step-0 interrupt line:\n%s", mode, out)
		}
		if !engine.HasCheckpoint(ckpt) {
			t.Errorf("%s: -checkpoint %s was not written", mode, ckpt)
		}
		if _, err := capture(t, func() error { return run(append(args, "-resume")) }); err != nil {
			t.Errorf("%s: resuming the step-0 checkpoint: %v", mode, err)
		}
	}
}

// TestUnsupportedCombinations: every cross-feature refusal is the opener's
// typed error, whichever flag spelling reached it.
func TestUnsupportedCombinations(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "2x2", "-fault-rate", "0.01"},
		{"-shards", "2x2", "-crash-rate", "0.01"},
		{"-shards", "2x2", "-track"},
		{"-shards", "2x2", "-trace-out", filepath.Join(t.TempDir(), "x.trace")},
		{"-shards", "2x2", "-heatmap"},
		{"-shards", "2x2", "-animate", "2"},
		{"-shards", "2x2", "-conflict-trace", filepath.Join(t.TempDir(), "x.jsonl")},
		{"-shards", "2x2", "-dist", "2", "-track"},
		{"-shards", "2x2", "-d", "3", "-n", "4"},
		{"-shards", "2x2", "-dist", "2", "-arrivals", "poisson:rate=0.05,until=30"},
		{"-shards", "2x2", "-dist", "5"},
		{"-dist", "2"},
	} {
		if _, err := capture(t, func() error { return run(append([]string{"-n", "8"}, args...)) }); !errors.Is(err, engine.ErrUnsupported) {
			t.Errorf("args %v: err = %v, want engine.ErrUnsupported", args, err)
		}
	}
}
