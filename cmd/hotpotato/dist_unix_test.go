//go:build unix

package main

import (
	"context"
	"errors"
	"strings"
	"syscall"
	"testing"
	"time"

	"hotpotato/internal/dshard"
)

// TestDistWorkersDoNotOutliveRun: every worker process a -dist run starts
// is gone — killed and reaped — once run returns, whether the run finished
// or was interrupted mid-run.
func TestDistWorkersDoNotOutliveRun(t *testing.T) {
	made := make(chan *dshard.ExecSpawner, 2)
	var workerFlags []string
	defer func(orig func(...string) *dshard.ExecSpawner) { spawner = orig }(spawner)
	spawner = func(argv ...string) *dshard.ExecSpawner {
		sp := dshard.NewExecSpawner(append(argv, workerFlags...)...)
		made <- sp
		return sp
	}
	args := []string{"-n", "16", "-workload", "full-load", "-policy", "random", "-shards", "2x2", "-dist", "2"}
	if _, err := capture(t, func() error { return run(args) }); err != nil {
		t.Fatal(err)
	}
	finished := <-made

	// Workers that sleep 2 s before each route are still mid-step when the
	// run is cancelled and closed: only the spawner's kill ends them before
	// run returns (a Stop that does not kill fails here).
	workerFlags = []string{"-step-delay", "2s"}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	interrupted := make(chan *dshard.ExecSpawner, 1)
	go func() {
		defer cancel()
		select {
		case sp := <-made:
			for len(sp.Pids()) < 2 && ctx.Err() == nil {
				time.Sleep(5 * time.Millisecond)
			}
			time.Sleep(100 * time.Millisecond)
			interrupted <- sp
		case <-ctx.Done():
		}
	}()
	out, err := capture(t, func() error { return runCtx(ctx, args) })
	if !errors.Is(err, context.Canceled) || !strings.Contains(out, "interrupted at step") {
		t.Fatalf("second run was not interrupted mid-run: err = %v\n%s", err, out)
	}

	for i, sp := range []*dshard.ExecSpawner{finished, <-interrupted} {
		pids := sp.Pids()
		if len(pids) != 2 {
			t.Errorf("run %d started %d worker processes, want 2", i, len(pids))
		}
		for _, pid := range pids {
			if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
				t.Errorf("run %d: worker process %d outlived run (kill -0: %v)", i, pid, err)
			}
		}
	}
}
