package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hotpotato/internal/checkpoint"
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
		data, _ := io.ReadAll(r)
		done <- string(data)
	}()
	runErr := f()
	w.Close()
	os.Stdout = old
	return <-done, runErr
}

// TestTraceCounterfactualSearch drives the three commands the way `make
// policylab-demo` chains them, at tiny sizes: trace a contended run with a
// mid-run checkpoint, replay that checkpoint under alternative policies, then
// run a two-generation search.
func TestTraceCounterfactualSearch(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.trace")
	ckptPath := filepath.Join(dir, "run.hpck")

	out, err := capture(t, func() error {
		return run([]string{"trace", "-n", "6", "-k", "48", "-policy", "restricted", "-seed", "3",
			"-o", tracePath, "-checkpoint", ckptPath, "-checkpoint-at", "2"})
	})
	if err != nil {
		t.Fatalf("trace: %v\n%s", err, out)
	}
	for _, want := range []string{"checkpoint:  step 2,", "48 delivered", "trace:       written to " + tracePath} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "conflicts:   0 ") {
		t.Errorf("48 packets on a 6x6 mesh recorded no conflict:\n%s", out)
	}

	out, err = capture(t, func() error { return run([]string{"trace", "-dump", tracePath, "-top", "1"}) })
	if err != nil || !strings.Contains(out, "restricted-priority") {
		t.Errorf("trace -dump: err %v, output:\n%s", err, out)
	}

	out, err = capture(t, func() error {
		return run([]string{"counterfactual", "-checkpoint", ckptPath, "-policy", "restricted",
			"-alt", "oldest,restricted", "-steps", "20"})
	})
	if err != nil {
		t.Fatalf("counterfactual: %v\n%s", err, out)
	}
	if !strings.Contains(out, "checkpoint:  step 2,") || !strings.Contains(out, "(baseline)") {
		t.Errorf("counterfactual output wrong:\n%s", out)
	}
	// The baseline replayed as its own alternative draws the same per-node
	// tie-break streams from the same state: it can diverge nowhere.
	self := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "restricted-priority ") && !strings.Contains(line, "(baseline)") {
			self = line
		}
	}
	if !strings.HasSuffix(strings.TrimSpace(self), "never") {
		t.Errorf("baseline vs itself diverged (or is missing): %q\n%s", self, out)
	}

	out, err = capture(t, func() error {
		return run([]string{"search", "-n", "6", "-seeds", "1", "-population", "4", "-generations", "2",
			"-elite", "1", "-immigrants", "1", "-seed", "7", "-verify-steps", "200"})
	})
	if err != nil {
		t.Fatalf("search: %v\n%s", err, out)
	}
	if !strings.Contains(out, "weighted:") {
		t.Errorf("search printed no weighted-family winner:\n%s", out)
	}
}

// TestCounterfactualRefusesV1Checkpoint: a checkpoint of snapshot schema v1
// was taken by a build that drew tie-breaks from a serial stream this build
// no longer has. Replaying it would silently sample a different run, so it is
// refused with the schema-version message.
func TestCounterfactualRefusesV1Checkpoint(t *testing.T) {
	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "run.hpck")
	if out, err := capture(t, func() error {
		return run([]string{"trace", "-n", "6", "-k", "48", "-seed", "3", "-checkpoint", ckptPath, "-checkpoint-at", "2"})
	}); err != nil {
		t.Fatalf("trace: %v\n%s", err, out)
	}
	snap, err := checkpoint.Load(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	snap.Version = 1
	for _, format := range []checkpoint.Format{checkpoint.Binary, checkpoint.JSON} {
		if err := checkpoint.Save(ckptPath, snap, format); err != nil {
			t.Fatal(err)
		}
		_, err := capture(t, func() error {
			return run([]string{"counterfactual", "-checkpoint", ckptPath, "-steps", "5"})
		})
		if err == nil || !strings.Contains(err.Error(), "snapshot schema v1") {
			t.Errorf("format %c: v1 checkpoint: err = %v, want the schema-version refusal", format, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"unknown command":        {[]string{"frobnicate"}, "unknown command"},
		"checkpoint-at alone":    {[]string{"trace", "-checkpoint-at", "3"}, "-checkpoint-at needs -checkpoint"},
		"bad policy spec":        {[]string{"trace", "-policy", "restricted:age=1"}, `unknown parameter "age"`},
		"counterfactual no ckpt": {[]string{"counterfactual"}, "-checkpoint is required"},
		"counterfactual no file": {[]string{"counterfactual", "-checkpoint", filepath.Join(dir, "absent.hpck")}, "no such file"},
		"dump of a missing file": {[]string{"trace", "-dump", filepath.Join(dir, "absent.trace")}, "no such file"},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := capture(t, func() error { return run(tc.args) })
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}
