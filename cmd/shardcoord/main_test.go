package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"hotpotato/internal/dshard"
	"hotpotato/internal/engine"
	"hotpotato/internal/spec"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad format", []string{"-checkpoint-format", "yaml"}, "unknown checkpoint format"},
		{"resume without checkpoint", []string{"-resume"}, "-resume needs -checkpoint"},
		{"bad grid", []string{"-shards", "0x2"}, "grid"},
		{"bad policy", []string{"-policy", "nope", "-shards", "2x1"}, "policy"},
		{"bad workload", []string{"-workload", "nope"}, "workload"},
		{"too many workers", []string{"-shards", "2x1", "-workers", "3"}, "workers"},
		{"no workers", []string{"-workers", "0"}, "-workers must be >= 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), tc.args, nil)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
			// The one combination shardcoord's flags can spell out of the
			// opener's compatibility table is refused with its typed error.
			if tc.name == "too many workers" && !errors.Is(err, engine.ErrUnsupported) {
				t.Fatalf("args %v: err = %v, want engine.ErrUnsupported", tc.args, err)
			}
		})
	}
}

// TestRunExternalWorkers drives the whole command — flags, the opener, the
// "listening on" line, two workers dialing in over a unix socket, the report
// — and checks the summary against the single engine on the same problem;
// then resumes the run's last periodic checkpoint with a fresh worker set.
func TestRunExternalWorkers(t *testing.T) {
	dir := t.TempDir()
	sock, ckpt := filepath.Join(dir, "coord.sock"), filepath.Join(dir, "ck.shards")
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	coordinate := func(extra ...string) string {
		t.Helper()
		out, err := os.Create(filepath.Join(dir, "out.txt"))
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				opts := dshard.WorkerOptions{Token: chaosToken, Slot: -1, Policies: spec.NewPolicy}
				if err := dshard.RunWorker(ctx, sock, opts); err != nil {
					t.Errorf("worker: %v", err)
				}
			}()
		}
		args := append([]string{"-n", "8", "-workload", "full-load", "-policy", "random", "-seed", "4",
			"-shards", "2x2", "-workers", "2", "-listen", sock, "-token", chaosToken, "-quiet",
			"-checkpoint", ckpt, "-checkpoint-every", "4"}, extra...)
		if err := run(ctx, args, out); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		text, err := os.ReadFile(out.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(text)
	}

	ws, err := spec.ParseWorkloadSpec("full-load")
	if err != nil {
		t.Fatal(err)
	}
	single, err := engine.Open(engine.Spec{Dim: 2, Side: 8, Policy: "random", Workload: ws, Seed: 4, DetectLivelock: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := single.Run(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"listening on " + sock,
		fmt.Sprintf("steps:       %d\n", res.Steps),
		fmt.Sprintf("delivered:   %d/%d\n", res.Delivered, res.Total),
		fmt.Sprintf("deflections: %d (of %d hops)\n", res.TotalDeflections, res.TotalHops),
		"recoveries:  0\n",
		fmt.Sprintf("state hash:  %016x\n", single.StateHash()),
	}
	for i, text := range []string{coordinate(), coordinate("-resume")} {
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
