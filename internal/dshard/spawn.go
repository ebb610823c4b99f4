package dshard

import (
	"context"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"
)

// goProc is the WorkerProc of an in-process worker goroutine.
type goProc struct {
	cancel context.CancelFunc
	done   chan struct{}
}

// Stop kills the worker abruptly — the context watcher slams its
// connection shut, so from the coordinator's side it looks just like a
// process death.
func (p *goProc) Stop() {
	p.cancel()
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
	}
}

// InProcessSpawner returns a Spawn function that runs each worker as a
// goroutine in this process, dialing the coordinator over loopback. It is
// the default distributed mode for hotpotatod jobs (no worker binary to
// manage) and the substrate of the transport-fault tests: base.Faults, if
// set, applies to every spawned worker's outbound stream.
//
// base.Slot is ignored; each spawn stamps its own slot.
func InProcessSpawner(base WorkerOptions) func(slot int, addr string) (WorkerProc, error) {
	return func(slot int, addr string) (WorkerProc, error) {
		opts := base
		opts.Slot = slot
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := RunWorker(ctx, addr, opts); err != nil && ctx.Err() == nil && opts.Logf != nil {
				opts.Logf("worker %d: %v", slot, err)
			}
		}()
		return &goProc{cancel: cancel, done: done}, nil
	}
}

// execProc is the WorkerProc of a worker child process.
type execProc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process is reaped
}

// Stop kills and reaps the worker; safe on one that is already dead.
func (p *execProc) Stop() {
	p.cmd.Process.Kill() //nolint:errcheck // already-dead is fine
	<-p.done
}

// ExecSpawner runs each worker as a child process: its command line, then
// -addr and -slot. A child shares the coordinator's stderr but, on unix,
// not its process group, so a terminal's Ctrl-C reaches only the
// coordinator, which checkpoints before it stops its workers. Kill and Pids let a harness kill
// a worker behind the coordinator's back and check that none outlives a run.
type ExecSpawner struct {
	argv  []string
	mu    sync.Mutex
	procs map[int]*execProc // the current incarnation of each slot
	pids  []int
}

// NewExecSpawner returns a spawner that starts argv[0] with argv[1:].
func NewExecSpawner(argv ...string) *ExecSpawner {
	return &ExecSpawner{argv: argv, procs: map[int]*execProc{}}
}

// Spawn is an Options.Spawn.
func (s *ExecSpawner) Spawn(slot int, addr string) (WorkerProc, error) {
	cmd := exec.Command(s.argv[0], append(s.argv[1:len(s.argv):len(s.argv)], "-addr", addr, "-slot", strconv.Itoa(slot))...)
	cmd.Stderr = os.Stderr
	detach(cmd)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &execProc{cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // a killed worker exits non-zero by design
		close(p.done)
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.procs[slot], s.pids = p, append(s.pids, cmd.Process.Pid)
	return p, nil
}

// Kill SIGKILLs the current incarnation of slot and reports whether there
// was one to signal.
func (s *ExecSpawner) Kill(slot int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.procs[slot] != nil && s.procs[slot].cmd.Process.Kill() == nil
}

// Pids lists every worker process the spawner started, in start order.
func (s *ExecSpawner) Pids() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.pids...)
}
