package dshard

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"hotpotato/internal/mesh"
	"hotpotato/internal/shard"
	"hotpotato/internal/sim"
	"hotpotato/internal/spec"
	"hotpotato/internal/workload"
)

// workerRig drives one ServeWorker by hand over a loopback socket (buffered,
// so frames can be sent back to back): the test plays the coordinator frame
// by frame.
type workerRig struct {
	t    *testing.T
	conn net.Conn
	in   frameReader
	done chan error
}

// startWorker serves a worker owning the whole 1x1 grid of a side-6 torus
// under full load, assigned and loaded at epoch 1, step 0. hook, if non-nil,
// is the worker's TestHookPreRoute.
func startWorker(t *testing.T, hook func(int)) *workerRig {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	wk, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	r := &workerRig{t: t, conn: coord, in: frameReader{r: coord}, done: make(chan error, 1)}
	go func() {
		defer wk.Close()
		r.done <- ServeWorker(context.Background(), wk, WorkerOptions{Slot: 0, Policies: spec.NewPolicy, TestHookPreRoute: hook})
	}()
	t.Cleanup(func() {
		r.send(mtShutdown, &msgAt{Epoch: 1})
		if err := <-r.done; err != nil {
			t.Errorf("worker exit: %v", err)
		}
		coord.Close()
	})
	if typ, _ := r.recv(); typ != mtHello {
		t.Fatalf("first frame is type %d, want HELLO", typ)
	}

	m := mesh.MustNewTorus(2, 6)
	pkts, err := workload.FullLoad(m, 2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	load := shardLoad{Index: 0}
	for _, p := range pkts {
		load.Packets = append(load.Packets, sim.CapturePacket(p))
	}
	// A part lists packets over ascending nodes; FullLoad emits them so.
	r.send(mtAssign, &msgAssign{Epoch: 1, Side: 6, Wrap: true, GridP: 1, GridQ: 1, Policy: "fixed", Seed: 1, HashWords: true, Owned: []int{0}, HeartbeatMillis: 60_000})
	r.send(mtLoad, &msgLoad{Epoch: 1, T: 0, Shards: []shardLoad{load}})
	if typ, _ := r.recv(); typ != mtLoaded {
		t.Fatalf("reply to LOAD is type %d, want LOADED", typ)
	}
	return r
}

func (r *workerRig) send(typ byte, m message) {
	r.t.Helper()
	if _, err := r.conn.Write(frameOf(nil, typ, m)); err != nil {
		r.t.Fatalf("write frame %d: %v", typ, err)
	}
}

// recv returns the next non-heartbeat frame, payload copied out.
func (r *workerRig) recv() (byte, []byte) {
	r.t.Helper()
	for {
		r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		typ, payload, err := r.in.next()
		if err != nil {
			r.t.Fatalf("read frame: %v", err)
		}
		if typ != mtHeartbeat {
			return typ, bytes.Clone(payload)
		}
	}
}

// silent asserts the worker answers nothing to what was just sent: a CKPT
// sent behind it is answered first.
func (r *workerRig) silent(what string, at int) {
	r.t.Helper()
	r.send(mtCkpt, &msgAt{Epoch: 1, T: at})
	if typ, _ := r.recv(); typ != mtParts {
		r.t.Fatalf("%s: worker answered with frame type %d, want silence", what, typ)
	}
}

// TestWorkerStepIdempotent pins the worker half of the retry contract now
// that one cache serves a whole step: a re-delivered STEP is answered from
// the cached bytes and advances nothing, a STEP older than the cache is a
// late duplicate and is dropped, and the hook fires once per routed step.
func TestWorkerStepIdempotent(t *testing.T) {
	var mu sync.Mutex
	var hooked []int
	r := startWorker(t, func(step int) {
		mu.Lock()
		defer mu.Unlock()
		hooked = append(hooked, step)
	})
	prime := &msgStep{Epoch: 1, T: 0, Route: true}
	r.send(mtStep, prime)
	typ, first := r.recv()
	if typ != mtStepped {
		t.Fatalf("reply to the priming STEP is type %d", typ)
	}
	var got msgStepped
	if err := decodeStepped(first, &got); err != nil || got.Applied || !got.Routed || got.T != 0 {
		t.Fatalf("priming reply: %+v, err %v", got, err)
	}

	// On a 1x1 torus grid the shard is its own neighbour: what it sends, it
	// receives.
	step1 := &msgStep{Epoch: 1, T: 1, Apply: true, Route: true, Ingress: got.Egress}
	r.send(mtStep, step1)
	r.send(mtStep, step1)
	_, a := r.recv()
	_, b := r.recv()
	if !bytes.Equal(a, b) {
		t.Fatal("a re-delivered STEP was answered with different bytes")
	}
	var s1 msgStepped
	if err := decodeStepped(a, &s1); err != nil || !s1.Applied || !s1.Routed || s1.T != 1 || s1.Hops != 72 {
		t.Fatalf("step 1 reply: applied=%v routed=%v t=%d hops=%d err=%v", s1.Applied, s1.Routed, s1.T, s1.Hops, err)
	}

	// Serve the next step, then deliver step 1 once more: no reply, no
	// latch, no second apply — the CKPT behind it is served at step 2.
	step2 := &msgStep{Epoch: 1, T: 2, Apply: true, Route: true, Ingress: s1.Egress}
	r.send(mtStep, step2)
	if typ, _ := r.recv(); typ != mtStepped {
		t.Fatalf("reply to step 2 is type %d", typ)
	}
	r.send(mtStep, step1)
	r.send(mtStep, prime)
	r.silent("STEP older than the cached one", 2)
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(hooked, []int{0, 1, 2}) {
		t.Errorf("TestHookPreRoute ran for steps %v, want once each for 0, 1, 2", hooked)
	}
}

// TestWorkerStepEpochs pins epoch staling on the fused frame: a STEP from
// before a recovery is dropped, one from an epoch the worker never loaded
// latches needLoad, and only a LOAD lifts the latch.
func TestWorkerStepEpochs(t *testing.T) {
	r := startWorker(t, nil)
	r.send(mtStep, &msgStep{Epoch: 0, T: 0, Route: true})
	r.silent("stale-epoch STEP", 0)

	r.send(mtStep, &msgStep{Epoch: 2, T: 0, Route: true})
	typ, payload := r.recv()
	if e, err := decodeError(payload); typ != mtError || err != nil || e.Fatal || !strings.Contains(e.Msg, "missed load") {
		t.Fatalf("future-epoch STEP: frame %d %+v, err %v", typ, e, err)
	}
	r.send(mtStep, &msgStep{Epoch: 1, T: 0, Route: true})
	typ, payload = r.recv()
	if e, _ := decodeError(payload); typ != mtError || !strings.Contains(e.Msg, "needs reload") {
		t.Fatalf("STEP after the latch: frame %d %+v", typ, e)
	}
	r.send(mtLoad, &msgLoad{Epoch: 1, T: 0})
	if typ, _ := r.recv(); typ != mtLoaded {
		t.Fatalf("reply to LOAD is type %d", typ)
	}
	r.send(mtStep, &msgStep{Epoch: 1, T: 0, Route: true})
	if typ, _ := r.recv(); typ != mtStepped {
		t.Fatalf("STEP after reload is type %d, want STEPPED", typ)
	}
}

// TestCoordinatorRefusesProtoV1 pins version skew: a worker of the
// two-barrier protocol is turned away at the handshake, and the refusal is
// logged.
func TestCoordinatorRefusesProtoV1(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	c, err := New(Spec{Side: 4, Policy: "fixed", Grid: shard.Grid{P: 2, Q: 1}}, nil, Options{
		Workers: 1, Token: "tok", Policies: spec.NewPolicy,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, format)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn, err := Dial(c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frameOf(nil, mtHello, &msgHello{Proto: 1, Token: "tok", Slot: 0})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("coordinator answered a protocol-1 HELLO instead of hanging up")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("coordinator kept a protocol-1 worker's connection open")
	}
	select {
	case ad := <-c.admitCh:
		ad.conn.Close()
		t.Fatal("protocol-1 worker was queued for adoption")
	default:
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], "rejecting worker handshake") {
		t.Fatalf("refusal not logged: %q", logged)
	}
}
