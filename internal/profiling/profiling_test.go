package profiling

import (
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
)

// requireNoCPUProfile fails the test if a CPU profile is still running: the
// runtime allows only one at a time, so starting another must succeed.
func requireNoCPUProfile(t *testing.T) {
	t.Helper()
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Fatalf("a CPU profile was left running: %v", err)
	}
	pprof.StopCPUProfile()
}

func TestStartNoPathsIsNoOp(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("no-op stop: %v", err)
	}
	requireNoCPUProfile(t)
}

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
	requireNoCPUProfile(t)
}

func TestStartUncreatablePath(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no-such-dir", "out.pprof")

	if _, err := Start(missing, ""); err == nil || !strings.HasPrefix(err.Error(), "profiling:") {
		t.Fatalf("uncreatable CPU path: err = %v, want a profiling: error", err)
	}
	requireNoCPUProfile(t)

	// The heap path is only opened by stop; the CPU profile started
	// alongside it must be ended all the same.
	stop, err := Start(filepath.Join(dir, "cpu.pprof"), missing)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil || !strings.HasPrefix(err.Error(), "profiling:") {
		t.Fatalf("uncreatable heap path: err = %v, want a profiling: error", err)
	}
	requireNoCPUProfile(t)
}
