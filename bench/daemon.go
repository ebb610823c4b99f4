package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hotpotato/internal/server"
	"hotpotato/internal/sim"
)

// buildDaemon compiles cmd/hotpotatod into outDir and returns the binary's
// path and the build's wall time (harness.build_s, never part of setup_s).
func buildDaemon(outDir string) (string, time.Duration, error) {
	bin := filepath.Join(outDir, "hotpotatod")
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/hotpotatod")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/hotpotatod: %v\n%s", err, out)
	}
	return bin, time.Since(t0), nil
}

// daemon is one running hotpotatod process, owned by the harness.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	bootMS float64
	exited chan error
	hc     *http.Client
}

// startDaemon boots hotpotatod on a free port with its WAL and checkpoints
// under dir and returns once /readyz answers. The process is started from
// a goroutine locked to its OS thread with Pdeathsig set, so the kernel
// kills it should the harness die in any way — panic, Ctrl-C or SIGKILL —
// before stop runs.
func startDaemon(bin, dir string, ckptEvery int) (*daemon, error) {
	t0 := time.Now()
	args := []string{"-addr", "127.0.0.1:0", "-workers", strconv.Itoa(clients), "-queue", strconv.Itoa(daemonQueue),
		"-wal", filepath.Join(dir, "jobs.wal"), "-checkpoint-dir", filepath.Join(dir, "ckpt")}
	if ckptEvery > 0 {
		args = append(args, "-checkpoint-every", strconv.Itoa(ckptEvery))
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(clients))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = os.Stderr
	d := &daemon{cmd: cmd, exited: make(chan error, 1)}
	started := make(chan error, 1)
	addr := make(chan string, 1)
	go func() {
		runtime.LockOSThread() // Pdeathsig fires when the starting thread exits
		defer runtime.UnlockOSThread()
		if err := cmd.Start(); err != nil {
			started <- err
			return
		}
		started <- nil
		// Wait must follow the last read of stdout.
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok && d.base == "" {
				d.base = "http://" + a
				addr <- a
			}
		}
		d.exited <- cmd.Wait()
	}()
	if err := <-started; err != nil {
		return nil, err
	}
	select {
	case <-addr:
	case err := <-d.exited:
		return nil, fmt.Errorf("hotpotatod exited during boot: %v", err)
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("hotpotatod did not report its address within 30s")
	}
	d.hc = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := d.hc.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("hotpotatod not ready within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	d.bootMS = float64(time.Since(t0)) / float64(time.Millisecond)
	return d, nil
}

func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already gone is fine
	<-d.exited
}

// stop sends SIGTERM and waits for the drain. A daemon that does not exit 0
// fails the workload.
func (d *daemon) stop() (drainMS float64, err error) {
	d.hc.CloseIdleConnections()
	t0 := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	select {
	case err = <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return 0, fmt.Errorf("hotpotatod did not drain within 60s of SIGTERM")
	}
	if err != nil {
		return 0, fmt.Errorf("hotpotatod exit after SIGTERM: %w", err)
	}
	return float64(time.Since(t0)) / float64(time.Millisecond), nil
}

// procUsage reads the daemon's CPU time (utime + stime) and peak resident
// set from /proc.
func (d *daemon) procUsage() (cpu time.Duration, peakRSSMB float64, err error) {
	pid := strconv.Itoa(d.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line, in clock ticks (100 Hz on Linux).
	rest := stat[bytes.LastIndexByte(stat, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	cpu = time.Duration(ut+st) * (time.Second / 100)
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			peakRSSMB = kb / 1024
		}
	}
	return cpu, peakRSSMB, nil
}

// jobView is the part of GET /v1/jobs/{id} the harness reads.
type jobView struct {
	ID        string      `json:"id"`
	State     string      `json:"state"`
	Created   time.Time   `json:"created"`
	Started   *time.Time  `json:"started"`
	Finished  *time.Time  `json:"finished"`
	Result    *sim.Result `json:"result"`
	Error     string      `json:"error"`
	FinalHash string      `json:"final_state_hash"`
}

// submit POSTs one job. refused reports a 429 (never retried: in an open
// loop a refused job is a failed one).
func (d *daemon) submit(js server.JobSpec) (id string, refused bool, err error) {
	body, err := json.Marshal(js)
	if err != nil {
		return "", false, err
	}
	resp, err := d.hc.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	switch resp.StatusCode {
	case http.StatusAccepted:
		var v jobView
		if err := json.Unmarshal(data, &v); err != nil {
			return "", false, err
		}
		return v.ID, false, nil
	case http.StatusTooManyRequests:
		return "", true, nil
	default:
		return "", false, fmt.Errorf("POST /v1/jobs: %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
}

// follow reads the job's NDJSON stream to EOF and returns the number of
// events; the last one is the summary.
func (d *daemon) follow(id string) (events int, err error) {
	resp, err := d.hc.Get(d.base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET stream %s: %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var last []byte
	for sc.Scan() {
		events++
		last = append(last[:0], sc.Bytes()...)
	}
	if err := sc.Err(); err != nil {
		return events, err
	}
	if !bytes.Contains(last, []byte(`"summary"`)) {
		return events, fmt.Errorf("stream %s ended without a summary", id)
	}
	return events, nil
}

// statuses fetches every job the daemon knows, once all of them are
// terminal. It runs after a phase, off the clock.
func (d *daemon) statuses(ctx context.Context) (map[string]jobView, error) {
	for {
		resp, err := d.hc.Get(d.base + "/v1/jobs")
		if err != nil {
			return nil, err
		}
		var all []jobView
		err = json.NewDecoder(resp.Body).Decode(&all)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		pending := 0
		out := make(map[string]jobView, len(all))
		for _, v := range all {
			if v.State == "queued" || v.State == "running" {
				pending++
			}
			out[v.ID] = v
		}
		if pending == 0 {
			return out, nil
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%d jobs still not terminal: %w", pending, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// scrape reads the hotpotatod_jobs_* counters from /metrics.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.hc.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// jobSample is one job as the client saw it.
type jobSample struct {
	seedIdx int
	id      string
	due     time.Time // open loop: when it was due to be sent
	sent    time.Time // when the POST began
	end     time.Time // closed loop: when the stream reached EOF
	events  int
	traced  bool
	refused bool
	err     error
}

// closedLoop runs `clients` callers for the given time, each submitting a
// job, following its stream to EOF, then submitting the next. With a
// tracer, every other job of a caller is recorded and the rest are not, so
// the two kinds can be compared under the same machine conditions.
func closedLoop(d *daemon, in *instance, dur time.Duration, tr *tracer) []jobSample {
	var mu sync.Mutex
	var out []jobSample
	var wg sync.WaitGroup
	stopAt := time.Now().Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; time.Now().Before(stopAt); n++ {
				idx := (n*clients + c) % len(in.seeds)
				tr := tr
				if n%2 == 1 {
					tr = nil
				}
				s := jobSample{seedIdx: idx, sent: time.Now(), traced: tr != nil}
				op := n*clients + c
				root := tr.begin("job.closed", op, -1)
				sp := tr.begin("http.submit", op, root)
				s.id, s.refused, s.err = d.submit(in.jobSpec(idx))
				tr.end(sp)
				if s.err == nil && !s.refused {
					sp = tr.begin("http.stream", op, root)
					s.events, s.err = d.follow(s.id)
					tr.end(sp)
				}
				s.end = time.Now()
				tr.end(root)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
				if s.err != nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

// dueTimes is the open loop's schedule: job i is due at start + i/rate,
// whatever happened to the jobs before it.
func dueTimes(start time.Time, rate float64, dur time.Duration) []time.Time {
	n := int(rate * dur.Seconds())
	out := make([]time.Time, n)
	for i := range out {
		out[i] = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	return out
}

// openLoop sends jobs on a fixed schedule from `clients` keep-alive
// connections and does not wait for them; latencies are computed
// afterwards from the daemon's own finish times against each job's due
// time, so a stall delays — and is charged to — every job behind it.
func openLoop(d *daemon, in *instance, rate float64, dur time.Duration, tr *tracer) []jobSample {
	due := dueTimes(time.Now().Add(5*time.Millisecond), rate, dur)
	out := make([]jobSample, len(due))
	next := make(chan int, len(due)) // sized to the number of sends: the scheduler never blocks
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				s := &out[i]
				s.seedIdx = i % len(in.seeds)
				s.due = due[i]
				s.sent = time.Now()
				sp := tr.begin("http.submit", 1_000_000+i, -1)
				s.id, s.refused, s.err = d.submit(in.jobSpec(s.seedIdx))
				tr.end(sp)
			}
		}()
	}
	for i, t := range due {
		time.Sleep(time.Until(t))
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}
