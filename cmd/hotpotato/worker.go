package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"hotpotato/internal/dshard"
	"hotpotato/internal/spec"
)

// runWorker is "hotpotato worker": one worker process of a -dist run. It
// dials the coordinator and executes the band of the shard grid it is
// assigned; it holds no durable state, so a killed worker is replaced and
// reloaded from the last coordinated checkpoint.
func runWorker(ctx context.Context, args []string) error {
	opts := dshard.WorkerOptions{Policies: spec.NewPolicy}
	fs := flag.NewFlagSet("hotpotato worker", flag.ContinueOnError)
	addr := fs.String("addr", "", "coordinator address: host:port for TCP, a path for a unix socket (required)")
	fs.StringVar(&opts.Token, "token", "", "shared secret the coordinator expects in the HELLO")
	fs.IntVar(&opts.Slot, "slot", -1, "worker slot to request (-1 = any open slot)")
	quiet := fs.Bool("quiet", false, "suppress per-event log lines on stderr")
	stepDelay := fs.Duration("step-delay", 0, "sleep this long before routing each step (slows demos so kills land mid-run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return errors.New("-addr is required (the coordinator's listen address)")
	}
	opts.Logf = func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "hotpotato worker: "+format+"\n", args...)
		}
	}
	if *stepDelay > 0 {
		opts.TestHookPreRoute = func(int) { time.Sleep(*stepDelay) }
	}

	// Serve until the coordinator broadcasts SHUTDOWN (clean exit). A broken
	// connection is not the end: the coordinator may have restarted, or
	// declared us dead during a transient stall — dialing back in and
	// rejoining under the new epoch is the worker's half of the recovery
	// protocol. An unreachable coordinator (ErrDial exhausts its own retry
	// budget) or a string of immediate serve failures gives up.
	failures := 0
	for {
		start := time.Now()
		err := dshard.RunWorker(ctx, *addr, opts)
		if err == nil || ctx.Err() != nil || errors.Is(err, dshard.ErrDial) {
			return err
		}
		if time.Since(start) > time.Second {
			failures = 0 // it served for a while; the failure is fresh
		}
		failures++
		if failures >= 5 {
			return err
		}
		opts.Logf("connection lost (%v); rejoining", err)
	}
}
