package main

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hotpotato/internal/dshard"
	"hotpotato/internal/engine"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad format", []string{"-checkpoint", "x", "-checkpoint-format", "yaml"}, "unknown checkpoint format"},
		{"resume without checkpoint", []string{"-resume"}, "-resume need -checkpoint"},
		{"bad grid", []string{"-shards", "0x2", "-dist", "2"}, "grid"},
		{"bad policy", []string{"-policy", "nope", "-shards", "2x1", "-dist", "2"}, "policy"},
		{"bad workload", []string{"-workload", "nope", "-shards", "2x1", "-dist", "2"}, "workload"},
		{"too many workers", []string{"-shards", "2x1", "-dist", "3"}, "dist workers exceed"},
		{"no workers", []string{"-shards", "2x1", "-dist", "-1"}, "dist workers must be >= 0"},
		{"listen without dist", []string{"-shards", "2x1", "-listen", "127.0.0.1:0"}, "-listen and -token need -dist"},
		{"token without dist", []string{"-token", "x"}, "-listen and -token need -dist"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := capture(t, func() error { return run(append([]string{"-n", "8"}, tc.args...)) })
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
			if tc.name == "too many workers" && !errors.Is(err, engine.ErrUnsupported) {
				t.Fatalf("args %v: err = %v, want engine.ErrUnsupported", tc.args, err)
			}
		})
	}
}

// TestRunExternalWorkers drives the whole command with -listen: the
// "listening on" line, two "hotpotato worker"s dialing in over a unix
// socket, the report — and checks the summary against the single engine on
// the same problem; then resumes the run's last periodic checkpoint with a
// fresh pair of workers.
func TestRunExternalWorkers(t *testing.T) {
	dir := t.TempDir()
	sock, ckpt := filepath.Join(dir, "coord.sock"), filepath.Join(dir, "ck.shards")
	const token = "external-token"
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coordinate := func(extra ...string) string {
		t.Helper()
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := runWorker(ctx, []string{"-addr", sock, "-token", token, "-quiet"}); err != nil {
					t.Errorf("worker: %v", err)
				}
			}()
		}
		args := append([]string{"-n", "8", "-workload", "full-load", "-policy", "random", "-seed", "4",
			"-shards", "2x2", "-dist", "2", "-listen", sock, "-token", token,
			"-checkpoint", ckpt, "-checkpoint-every", "4"}, extra...)
		out, err := capture(t, func() error { return runCtx(ctx, args) })
		if err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		return out
	}

	single, err := capture(t, func() error {
		return run([]string{"-n", "8", "-workload", "full-load", "-policy", "random", "-seed", "4"})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"listening on " + sock + "\n", "recoveries:  0\n"}
	for _, line := range summaryLines[1:] {
		want = append(want, lineWith(t, single, line)+"\n")
	}
	// A resumed run's steps line lacks the instance lower bound, so compare
	// the count alone.
	steps := func(out string) string { return strings.Fields(lineWith(t, out, "steps:"))[1] }
	for i, text := range []string{coordinate(), coordinate("-resume")} {
		if got := steps(text); got != steps(single) {
			t.Errorf("run %d: %s steps, single engine %s:\n%s", i, got, steps(single), text)
		}
		for _, line := range want {
			if !strings.Contains(text, line) {
				t.Errorf("run %d: output lacks %q:\n%s", i, line, text)
			}
		}
		if resumed := strings.Contains(text, "resumed:     "+ckpt+" at step "); resumed != (i == 1) {
			t.Errorf("run %d: resumed line present = %v:\n%s", i, resumed, text)
		}
	}
}

func TestWorkerRequiresAddr(t *testing.T) {
	err := runWorker(context.Background(), nil)
	if err == nil || !strings.Contains(err.Error(), "-addr") {
		t.Fatalf("missing -addr: err %v, want a mention of -addr", err)
	}
}

func TestWorkerRejectsUnknownFlag(t *testing.T) {
	if err := runWorker(context.Background(), []string{"-no-such-flag"}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

// TestWorkerDialFailureIsBounded proves the rejoin loop gives up when the
// coordinator is truly gone rather than spinning forever: a dial against a
// dead address must return an error promptly.
func TestWorkerDialFailureIsBounded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- runWorker(ctx, []string{"-addr", "127.0.0.1:1", "-quiet"}) }()
	select {
	case err := <-done:
		if err == nil || !errors.Is(err, dshard.ErrDial) {
			t.Fatalf("dial against a dead address: err = %v, want dshard.ErrDial", err)
		}
	case <-ctx.Done():
		t.Fatal("worker still dialing a dead address after a minute")
	}
}
