// Command shardcoord runs one hot-potato routing problem distributed across
// worker processes. It listens for workers (cmd/shardworker), assigns each a
// contiguous band of the PxQ shard grid, and drives the step barrier — one
// round trip a step, relaying receiver-keyed halo buckets between workers as
// the bytes they were sent — until the run completes. The result is
// bit-identical to the same problem on the in-process engines: same per-step
// state hashes, same livelock step, same summary.
//
// Workers are expendable. With -worker-bin the coordinator spawns (and after
// a kill, re-spawns) them itself; without it, workers are external and dial
// in. Either way a failure rolls every worker back to the last coordinated
// checkpoint and the run continues.
//
// Usage:
//
//	shardcoord -n 16 -workload permutation -policy random -shards 2x2 \
//	    -workers 2 -worker-bin ./shardworker
//
// With no -worker-bin it prints "listening on <addr>" and waits for
//
//	shardworker -addr <addr>
//
// to connect (one per -workers slot).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hotpotato/internal/dshard"
	"hotpotato/internal/engine"
	"hotpotato/internal/shard"
	"hotpotato/internal/spec"
	"hotpotato/internal/version"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "shardcoord:", err)
		os.Exit(1)
	}
}

// execProc is the WorkerProc for a worker the coordinator exec'ed itself.
type execProc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

// Stop kills and reaps the worker; safe on one that is already dead.
func (p *execProc) Stop() {
	p.cmd.Process.Kill() //nolint:errcheck // already-dead is fine
	<-p.done
}

// execSpawner launches bin as the worker for a slot. Worker stderr is
// inherited so its log lines land next to the coordinator's.
func execSpawner(bin, token string, quiet bool, extra []string) func(slot int, addr string) (dshard.WorkerProc, error) {
	return func(slot int, addr string) (dshard.WorkerProc, error) {
		args := []string{"-addr", addr, "-token", token, "-slot", strconv.Itoa(slot)}
		if quiet {
			args = append(args, "-quiet")
		}
		args = append(args, extra...)
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		p := &execProc{cmd: cmd, done: make(chan struct{})}
		go func() {
			cmd.Wait() //nolint:errcheck // a SIGKILLed worker "fails"; the exit status is noise
			close(p.done)
		}()
		return p, nil
	}
}

func run(ctx context.Context, args []string, out *os.File) error {
	fs := flag.NewFlagSet("shardcoord", flag.ContinueOnError)
	var (
		side     = fs.Int("n", 16, "mesh side length (the mesh is 2-dimensional)")
		torus    = fs.Bool("torus", false, "torus (wraparound) connectivity instead of a mesh")
		k        = fs.Int("k", 64, "packet count (where the workload takes one)")
		policy   = fs.String("policy", "restricted", "routing policy")
		wl       = fs.String("workload", "uniform", "workload generator")
		seed     = fs.Int64("seed", 1, "random seed")
		maxSteps = fs.Int("max-steps", 0, "step budget (0 = default)")
		validate = fs.String("validate", "greedy", "validation level: off, basic, greedy, restricted")
		livelock = fs.Bool("detect-livelock", true, "detect repeated configurations (deterministic policies)")
		shards   = fs.String("shards", "2x1", "PxQ spatial decomposition, e.g. 4x2")
		workers  = fs.Int("workers", 2, "worker processes sharing the grid (each owns a band of shards)")

		listen     = fs.String("listen", "127.0.0.1:0", "address to listen on: host:port for TCP, a path for a unix socket")
		token      = fs.String("token", "", "shared secret workers must present")
		workerBin  = fs.String("worker-bin", "", "shardworker binary to spawn per slot (empty = wait for external workers)")
		workerArgs = fs.String("worker-flags", "", "extra flags passed to each spawned worker, e.g. \"-step-delay 20ms\"")

		stepTimeout   = fs.Duration("step-timeout", 10*time.Second, "deadline for one attempt of a step barrier per worker")
		retries       = fs.Int("retries", 2, "retries per step barrier before a worker is declared failed")
		hbTimeout     = fs.Duration("heartbeat-timeout", 2*time.Second, "silence after which a worker is declared dead")
		rejoinTimeout = fs.Duration("rejoin-timeout", 15*time.Second, "how long a recovery waits for a replacement worker")
		maxRecover    = fs.Int("max-recoveries", 0, "checkpoint rollbacks tolerated across the run (0 = default, negative = fail on first)")
		maxWall       = fs.Duration("max-wall", 0, "wall-clock budget for the run (0 = unlimited)")

		ckptPath   = fs.String("checkpoint", "", "checkpoint directory: coordinated snapshots saved every -checkpoint-every steps")
		ckptEvery  = fs.Int("checkpoint-every", 0, "rollback/save cadence in steps (0 = default 256)")
		ckptFormat = fs.String("checkpoint-format", "binary", "checkpoint encoding: binary or json")
		resume     = fs.Bool("resume", false, "restore state from -checkpoint before running (grid and worker count may differ from the original run)")
		quiet      = fs.Bool("quiet", false, "suppress per-event log lines on stderr")
		showVer    = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVer {
		fmt.Println(version.String("shardcoord"))
		return nil
	}
	if *resume && *ckptPath == "" {
		return fmt.Errorf("-resume needs -checkpoint")
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be >= 1, got %d (a coordinator with no workers is hotpotato -shards)", *workers)
	}
	grid, err := shard.ParseGrid(*shards)
	if err != nil {
		return err
	}
	ws, err := spec.ParseWorkloadSpec(*wl)
	if err != nil {
		return err
	}
	transport := &dshard.Options{
		Listen:           *listen,
		Token:            *token,
		StepTimeout:      *stepTimeout,
		MaxRetries:       *retries,
		HeartbeatTimeout: *hbTimeout,
		RejoinTimeout:    *rejoinTimeout,
		MaxRecoveries:    *maxRecover,
	}
	if *workerBin != "" {
		transport.Spawn = execSpawner(*workerBin, *token, *quiet, strings.Fields(*workerArgs))
	}
	if !*quiet {
		transport.Logf = func(f string, args ...any) {
			fmt.Fprintf(os.Stderr, "shardcoord: "+f+"\n", args...)
		}
	}
	es := engine.Spec{
		Dim:              2,
		Side:             *side,
		Torus:            *torus,
		Policy:           *policy,
		Validation:       *validate,
		Workload:         ws,
		K:                *k,
		Seed:             *seed,
		MaxSteps:         *maxSteps,
		MaxWall:          *maxWall,
		DetectLivelock:   *livelock,
		Grid:             grid,
		DistWorkers:      *workers,
		Dist:             transport,
		CheckpointPath:   *ckptPath,
		CheckpointEvery:  *ckptEvery,
		CheckpointFormat: *ckptFormat,
	}
	if *resume {
		es.ResumeFrom = *ckptPath
	}
	h, err := engine.Open(es)
	if err != nil {
		return err
	}
	defer h.Close()
	fmt.Fprintf(out, "listening on %s\n", h.Dist().Addr())
	if *resume {
		p := h.Progress()
		fmt.Fprintf(out, "resumed:     %s at step %d, %d packets in flight\n", *ckptPath, p.Time, p.Live)
	}

	res, runErr := h.Run(ctx, nil)
	if res == nil {
		return runErr
	}

	fmt.Fprintf(out, "mesh:        %v (diameter %d)\n", h.Mesh(), h.Mesh().Diameter())
	fmt.Fprintf(out, "policy:      %s\n", *policy)
	fmt.Fprintf(out, "shards:      %s across %d worker processes\n", grid, *workers)
	if *resume {
		fmt.Fprintf(out, "workload:    %s (resumed), k=%d\n", *wl, res.Total)
	} else {
		fmt.Fprintf(out, "workload:    %s, k=%d\n", *wl, res.Total)
	}
	fmt.Fprintf(out, "steps:       %d\n", res.Steps)
	fmt.Fprintf(out, "delivered:   %d/%d\n", res.Delivered, res.Total)
	fmt.Fprintf(out, "deflections: %d (of %d hops)\n", res.TotalDeflections, res.TotalHops)
	fmt.Fprintf(out, "max load:    %d packets in one node\n", res.MaxNodeLoad)
	fmt.Fprintf(out, "recoveries:  %d\n", h.Dist().Recoveries())
	fmt.Fprintf(out, "state hash:  %016x\n", h.StateHash())
	if res.Livelocked {
		fmt.Fprintln(out, "LIVELOCK detected: the configuration repeated")
	}
	if res.HitMaxSteps {
		fmt.Fprintln(out, "step budget exhausted before completion")
	}
	if res.DeadlineExceeded {
		fmt.Fprintln(out, "wall-clock budget exhausted before completion")
	}
	if runErr != nil { // context cancelled: a signal stopped the run
		if *ckptPath != "" {
			fmt.Fprintf(out, "interrupted at step %d; state saved to %s — rerun with -resume to continue\n", res.Steps, *ckptPath)
		} else {
			fmt.Fprintf(out, "interrupted at step %d (no -checkpoint set, progress not saved)\n", res.Steps)
		}
	}
	return runErr
}
