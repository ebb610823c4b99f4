// Command hotpotatod is the long-running simulation service: a job queue,
// worker pool and HTTP API over the same engine the CLIs drive.
//
// Usage:
//
//	hotpotatod -addr :8080 -workers 4 -queue 32 -checkpoint-dir /var/lib/hotpotato
//
// Endpoints:
//
//	POST /v1/jobs             submit a job spec (JSON); 202 + id, 429 when full
//	GET  /v1/jobs             list jobs
//	GET  /v1/jobs/{id}        job status
//	GET  /v1/jobs/{id}/stream NDJSON progress + final summary
//	GET  /metrics             Prometheus text format
//	GET  /healthz, /readyz    liveness / readiness
//
// SIGINT/SIGTERM drains gracefully: admission stops, in-flight jobs get
// -drain-grace to finish, stragglers checkpoint into -checkpoint-dir, and
// the process exits 0 with no accepted job lost.
//
// With -wal the job store is durable: every lifecycle transition is fsynced
// into the write-ahead log before the client sees it, so even kill -9 loses
// no accepted job — the next start replays the log, re-enqueues unfinished
// jobs, and (with -checkpoint-dir and -checkpoint-every) resumes them from
// their last periodic checkpoint. -tenant-rate/-tenant-burst add per-tenant
// token-bucket admission (429 + Retry-After), and -quarantine-after stops
// poison jobs that repeatedly panic or take the daemon down.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hotpotato/internal/server"
	"hotpotato/internal/version"
)

// notifyListen, when non-nil, receives the bound listener address. Tests
// hook it to discover the port behind ":0".
var notifyListen func(net.Addr)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hotpotatod:", err)
		os.Exit(1)
	}
}

// run parses flags and serves until ctx is cancelled (the signal handler),
// then drains and returns.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hotpotatod", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		queue    = fs.Int("queue", 16, "admission queue depth (full queue answers 429)")
		workers  = fs.Int("workers", 2, "jobs executed concurrently")
		jobTO    = fs.Duration("job-timeout", 0, "per-job wall-time budget (0 = unlimited); over-budget jobs checkpoint")
		attempts = fs.Int("max-attempts", 1, "attempts per job before it is reported failed")
		ckptDir  = fs.String("checkpoint-dir", "", "directory for drained/timed-out job checkpoints (empty = no checkpointing)")
		ckptEach = fs.Int("checkpoint-every", 0, "also checkpoint running jobs every N engine steps (0 = only on stop; needs -checkpoint-dir); saves are written behind the job, so a job's file may lag it by up to two saves until its run returns")
		wal      = fs.String("wal", "", "write-ahead log for the durable job store (empty = jobs do not survive restarts)")
		tenRate  = fs.Float64("tenant-rate", 0, "per-tenant admission tokens per second (0 = no per-tenant limiting)")
		tenBurst = fs.Int("tenant-burst", 1, "per-tenant admission burst")
		quarant  = fs.Int("quarantine-after", 3, "quarantine a job after this many starts without finishing (negative = never)")
		grace    = fs.Duration("drain-grace", 5*time.Second, "how long a drain lets jobs finish before checkpointing them")
		drainTO  = fs.Duration("drain-timeout", 60*time.Second, "hard bound on the whole drain")
		maxNodes = fs.Int("max-nodes", 1<<20, "largest accepted mesh, in nodes")
		maxK     = fs.Int("max-k", 1<<20, "largest accepted packet count")
		ver      = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ver {
		fmt.Fprintln(out, version.String("hotpotatod"))
		return nil
	}

	logger := log.New(out, "hotpotatod: ", log.LstdFlags)
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
	}
	srv, err := server.New(server.Config{
		QueueDepth:      *queue,
		Workers:         *workers,
		JobTimeout:      *jobTO,
		MaxAttempts:     *attempts,
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEach,
		WALPath:         *wal,
		TenantRate:      *tenRate,
		TenantBurst:     *tenBurst,
		QuarantineAfter: *quarant,
		DrainGrace:      *grace,
		MaxNodes:        *maxNodes,
		MaxK:            *maxK,
		Logf:            logger.Printf,
	})
	if err != nil {
		return err
	}
	srv.Start()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if notifyListen != nil {
		notifyListen(ln.Addr())
	}
	logger.Printf("listening on %s", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err // the listener died; nothing to drain for
	case <-ctx.Done():
	}

	logger.Printf("signal received, draining (grace %s, bound %s)", *grace, *drainTO)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	// Jobs are settled (or abandoned); now close the listener and let
	// in-flight HTTP exchanges — status polls, stream tails — finish.
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		return drainErr
	}
	logger.Printf("drained, exiting")
	return nil
}
