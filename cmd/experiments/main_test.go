package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite results/REPORT.md")

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

func TestList(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-list"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E1", "E7", "E10", "E13"} {
		if !strings.Contains(out, id) {
			t.Errorf("list missing %s:\n%s", id, out)
		}
	}
}

func TestSingleExperimentText(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-quick", "-exp", "E7"}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"=== E7", "claim:", "E7 (Claim 13)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-quick", "-exp", "E7", "-csv"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "d,shape,volumes") {
		t.Errorf("CSV header missing:\n%s", out)
	}
}

func TestMultipleExperiments(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-quick", "-exp", "E2, E3"}) })
	if err != nil {
		t.Fatal(err)
	}
	e2, e3 := strings.Index(out, "=== E2"), strings.Index(out, "=== E3")
	if e2 < 0 || e3 < e2 {
		t.Errorf("expected E2, then E3:\n%s", out)
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := capture(t, func() error { return run([]string{"-exp", "E99"}) }); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestOutDir(t *testing.T) {
	dir := t.TempDir()
	if _, err := capture(t, func() error { return run([]string{"-quick", "-exp", "E7", "-out", dir}) }); err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(filepath.Join(dir, "REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"`experiments -seed 1 -quick -exp E7`", "## E7 —", "| d | shape |", "## Figures"} {
		if !strings.Contains(string(report), want) {
			t.Errorf("REPORT.md missing %q:\n%s", want, report)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Errorf("-out wrote %d files, want REPORT.md only", len(entries))
	}
}

func TestMarkdownOutput(t *testing.T) {
	out, err := capture(t, func() error { return run([]string{"-quick", "-exp", "E7", "-markdown"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "| d | shape |") {
		t.Errorf("markdown header missing:\n%s", out)
	}
}

// TestReportGolden regenerates the full report and compares it byte for
// byte with the committed results/REPORT.md, so a change that moves any
// table value or figure is a reviewed, deliberate act. Run with -update to
// rewrite the file.
func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size report skipped in -short mode")
	}
	dir := t.TempDir()
	if _, err := capture(t, func() error { return run([]string{"-out", dir}) }); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("..", "..", "results", "REPORT.md")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if string(got) != string(want) {
		gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("report drifted from %s at line %d (run with -update if intended):\ngot:  %s\nwant: %s",
					golden, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("report drifted from %s: %d lines, want %d (run with -update if intended)",
			golden, len(gotLines), len(wantLines))
	}
}

// TestReportQuick: the quick report holds every registered experiment, the
// asserted checks and all six figures.
func TestReportQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick report skipped in -short mode")
	}
	dir := t.TempDir()
	if _, err := capture(t, func() error { return run([]string{"-quick", "-out", dir}) }); err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(filepath.Join(dir, "REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"## E1 —", "## E24 —", "no violations", "| n | k |", "live snapshot", "Figure 6"} {
		if !strings.Contains(string(report), want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestReportBadDir(t *testing.T) {
	if _, err := capture(t, func() error { return run([]string{"-quick", "-exp", "E7", "-out", "/dev/null/nope"}) }); err == nil {
		t.Error("unwritable -out accepted")
	}
}

func TestAllFigures(t *testing.T) {
	var out strings.Builder
	if err := writeFigures(&out, 8, 3); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		if !strings.Contains(out.String(), "Figure "+string(rune('0'+i))) {
			t.Errorf("figure %d missing", i)
		}
	}
	if !strings.Contains(out.String(), "live snapshot") {
		t.Error("figures 3-4 snapshot header missing")
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	_, loads1, t1, err := congestedSnapshot(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	_, loads2, t2, err := congestedSnapshot(10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 || !reflect.DeepEqual(loads1, loads2) {
		t.Error("snapshot not deterministic under a fixed seed")
	}
}

func TestBadMeshSize(t *testing.T) {
	if err := writeFigures(new(strings.Builder), 1, 3); err == nil {
		t.Error("n=1 accepted")
	}
}
