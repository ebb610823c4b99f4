package main

import (
	"context"
	"errors"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	runner "hotpotato/internal/run"
)

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

func TestSweepBasicGrid(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-n", "6,8", "-k", "16,32", "-policy", "restricted,random",
			"-workload", "uniform", "-trials", "2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 sizes x 2 ks x 1 workload x 2 policies = 8 rows.
	if got := strings.Count(out, "mesh(d=2"); got != 8 {
		t.Errorf("expected 8 grid rows, found %d:\n%s", got, out)
	}
}

func TestSweepTorusTracked(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-torus", "-n", "6", "-k", "16", "-trials", "2", "-track", "-strict"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "torus(d=2, n=6)") {
		t.Errorf("torus row missing:\n%s", out)
	}
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	args := []string{"-n", "8", "-k", "40", "-policy", "restricted", "-trials", "4"}
	serial, err := capture(t, func() error { return run(args) })
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := capture(t, func() error { return run(append(args, "-parallel", "3")) })
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Errorf("parallel sweep output differs from serial:\n%s\nvs\n%s", serial, parallel)
	}
}

func TestSweepCSV(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-n", "6", "-k", "10", "-trials", "1", "-csv"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "network,n,k,") {
		t.Errorf("CSV header missing:\n%s", out)
	}
}

func TestSweepErrors(t *testing.T) {
	cases := [][]string{
		{"-policy", "bogus"},
		{"-workload", "bogus"},
		{"-n", "abc"},
		{"-k", "1,x"},
		{"-d", "0"},
		{"-torus", "-n", "2"},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestSweepSIGTERMJournalResume is the end-to-end crash-safety check: a
// journaled sweep receives SIGTERM mid-grid, must exit with the journal
// flushed (every finished cell on disk, in-flight cells completed), and a
// second invocation with -resume must produce the full table while
// rerunning only the missing cells.
func TestSweepSIGTERMJournalResume(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	grid := []string{"-n", "32", "-k", "2048,3000",
		"-policy", "restricted,random,dest-order,fewest-good",
		"-workload", "uniform,hotspot", "-trials", "20",
		"-journal", journal, "-quiet-cells"}
	const cellCount = 2 * 4 * 2

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()

	// Fire SIGTERM at ourselves once the journal shows real progress, so
	// the interrupt always lands mid-grid regardless of machine speed.
	watcherDone := make(chan struct{})
	runDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			select {
			case <-runDone:
				return
			case <-time.After(10 * time.Millisecond):
			}
			if countLines(journal) >= 3 { // header + two finished cells
				break
			}
		}
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
	}()

	_, err := capture(t, func() error { return runCtx(ctx, grid) })
	close(runDone)
	<-watcherDone
	if !errors.Is(err, runner.ErrInterrupted) {
		t.Fatalf("interrupted sweep err = %v, want ErrInterrupted", err)
	}
	entries := countLines(journal) - 1
	if entries < 1 || entries >= cellCount {
		t.Fatalf("journal has %d entries after SIGTERM, want partial progress", entries)
	}

	out, err := capture(t, func() error {
		return runCtx(context.Background(), append(grid, "-resume"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(out, "mesh(d=2"); rows != cellCount {
		t.Errorf("resumed sweep printed %d rows, want %d:\n%s", rows, cellCount, out)
	}
	if got := countLines(journal) - 1; got < cellCount {
		t.Errorf("journal has %d entries after resume, want >= %d", got, cellCount)
	}
}

// TestSweepResumeRejectsDifferentGrid: -resume against the journal of a
// different sweep must fail instead of mixing results.
func TestSweepResumeRejectsDifferentGrid(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	if _, err := capture(t, func() error {
		return run([]string{"-n", "6", "-k", "10", "-trials", "1", "-journal", journal, "-quiet-cells"})
	}); err != nil {
		t.Fatal(err)
	}
	_, err := capture(t, func() error {
		return run([]string{"-n", "8", "-k", "10", "-trials", "1", "-journal", journal, "-resume", "-quiet-cells"})
	})
	if !errors.Is(err, runner.ErrBadJournal) {
		t.Errorf("grid mismatch err = %v, want ErrBadJournal", err)
	}
}

// countLines returns the number of newline-terminated lines in path, or 0
// if the file does not exist yet.
func countLines(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return strings.Count(string(data), "\n")
}

// TestSweepParameterizedWorkloads: the workload list accepts the
// name:key=val,... syntax, with commas inside parameter lists kept intact.
func TestSweepParameterizedWorkloads(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-n", "6", "-k", "8", "-trials", "2",
			"-workload", "hotspot:frac=0.9,local:radius=2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out, "mesh(d=2"); got != 2 {
		t.Errorf("expected 2 rows (one per parameterized workload), found %d:\n%s", got, out)
	}
}

// TestSweepArrivals: cells can run under continuous traffic.
func TestSweepArrivals(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-n", "6", "-trials", "2", "-workload", "none",
			"-arrivals", "poisson:rate=0.05,until=30", "-max-steps", "4000"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mesh(d=2") {
		t.Errorf("arrivals sweep produced no rows:\n%s", out)
	}
}

// TestSweepArrivalErrors: bad arrival specs and conflicting flags fail.
func TestSweepArrivalErrors(t *testing.T) {
	cases := [][]string{
		{"-n", "6", "-arrivals", "bogus:rate=1"},
		{"-n", "6", "-arrivals", "poisson:rate=0.05", "-track"},
		{"-n", "6", "-k", "8", "-workload", "full-load"},
		{"-n", "6", "-workload", "hotspot:frac=2"},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
