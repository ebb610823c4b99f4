package sim

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hotpotato/internal/mesh"
)

// flapModel is a deterministic-given-rng link flap process used to exercise
// the overlay code path and the fault-clock replay in Restore.
type flapModel struct {
	rate, repair float64
}

func (f flapModel) Advance(t int, o *mesh.Overlay, rng *rand.Rand) {
	base := o.Base()
	for id := 0; id < base.Size(); id++ {
		for d := 0; d < base.DirCount(); d++ {
			node, dir := mesh.NodeID(id), mesh.Dir(d)
			if !base.HasArc(node, dir) {
				continue
			}
			if o.LinkDown(node, dir) {
				if rng.Float64() < f.repair {
					o.RestoreLink(node, dir)
				}
			} else if rng.Float64() < f.rate {
				o.FailLink(node, dir)
			}
		}
	}
}

// snapshotCase is one engine configuration whose mid-run snapshot must
// resume bit-identically.
type snapshotCase struct {
	name    string
	policy  func() Policy
	opts    Options
	faults  func() FaultModel
	breakAt int
}

func snapshotCases() []snapshotCase {
	return []snapshotCase{
		{name: "fast-path-serial-deterministic",
			policy: firstGoodPolicy,
			opts:   Options{Seed: 5, Validation: ValidateBasic, MaxSteps: 2000, DetectLivelock: true}, breakAt: 7},
		{name: "fast-path-serial-randomized",
			policy: shuffledPolicy,
			opts:   Options{Seed: 5, Validation: ValidateBasic, MaxSteps: 2000}, breakAt: 9},
		{name: "fault-overlay-serial",
			policy: firstGoodPolicy,
			opts:   Options{Seed: 11, Validation: ValidateBasic, MaxSteps: 2000},
			faults: func() FaultModel { return flapModel{rate: 0.01, repair: 0.3} }, breakAt: 11},
		{name: "fault-overlay-randomized",
			policy: shuffledPolicy,
			opts:   Options{Seed: 11, Validation: ValidateBasic, MaxSteps: 2000},
			faults: func() FaultModel { return flapModel{rate: 0.01, repair: 0.3} }, breakAt: 13},
	}
}

// runToEnd drives the engine to completion recording per-step moves.
func runToEnd(t *testing.T, e *Engine) (Result, []moveRec) {
	t.Helper()
	var log []moveRec
	e.AddObserver(ObserverFunc(func(rec *StepRecord) {
		for i := range rec.Moves {
			mv := &rec.Moves[i]
			log = append(log, moveRec{t: rec.Time, id: mv.Packet.ID, from: mv.From, to: mv.To, dir: mv.Dir, adv: mv.Advanced})
		}
	}))
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return *res, log
}

// TestSnapshotResumeParity is the core checkpoint guarantee: run K steps,
// snapshot, restore into a fresh engine, and the remaining run is
// bit-identical — same per-step moves, same final Result, same state hash —
// on the table fast path and the fault-overlay path, for deterministic and
// randomized policies.
func TestSnapshotResumeParity(t *testing.T) {
	m := mesh.MustNew(2, 8)
	for _, tc := range snapshotCases() {
		t.Run(tc.name, func(t *testing.T) {
			packets := parityPackets(m, m.Size(), 3)

			// Reference: one uninterrupted run.
			ref, err := New(m, tc.policy(), clonePackets(packets), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			if tc.faults != nil {
				ref.SetFaults(tc.faults(), FateDrop)
			}
			refRes, refLog := runToEnd(t, ref)

			// Interrupted run: step to breakAt, snapshot, abandon.
			a, err := New(m, tc.policy(), clonePackets(packets), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if tc.faults != nil {
				a.SetFaults(tc.faults(), FateDrop)
			}
			for i := 0; i < tc.breakAt && !a.Done(); i++ {
				if err := a.Step(); err != nil {
					t.Fatal(err)
				}
			}
			hashAt := a.StateHash()
			snap, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}

			// The snapshot must survive serialization (the JSON leg of the
			// codec round-trips through the same marshaling).
			buf, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			var snap2 Snapshot
			if err := json.Unmarshal(buf, &snap2); err != nil {
				t.Fatal(err)
			}

			// Resume into a fresh engine.
			b, err := New(m, tc.policy(), nil, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			if tc.faults != nil {
				b.SetFaults(tc.faults(), FateDrop)
			}
			if err := b.Restore(&snap2); err != nil {
				t.Fatal(err)
			}
			if got := b.StateHash(); got != hashAt {
				t.Fatalf("restored state hash %#x != snapshotted %#x", got, hashAt)
			}
			if b.Time() != a.Time() || b.Live() != a.Live() {
				t.Fatalf("restored clock/live (%d, %d) != source (%d, %d)", b.Time(), b.Live(), a.Time(), a.Live())
			}
			bRes, bLog := runToEnd(t, b)

			if bRes != refRes {
				t.Errorf("resumed result diverged:\nresumed %+v\nref     %+v", bRes, refRes)
			}
			// The resumed move log must equal the reference's tail.
			tail := refLog[:0:0]
			for _, mv := range refLog {
				if mv.t >= snap.Time {
					tail = append(tail, mv)
				}
			}
			if !slices.Equal(bLog, tail) {
				t.Errorf("resumed move log diverged from reference tail (%d vs %d moves)", len(bLog), len(tail))
			}
			if bh, rh := b.StateHash(), ref.StateHash(); bh != rh {
				t.Errorf("final state hash %#x != reference %#x", bh, rh)
			}
		})
	}
}

// TestSnapshotRestoreRejectsMismatch: Restore must refuse engines whose
// configuration differs from the snapshot's instead of silently diverging.
func TestSnapshotRestoreRejectsMismatch(t *testing.T) {
	m := mesh.MustNew(2, 6)
	mk := func(pol Policy, opts Options) *Engine {
		e, err := New(m, pol, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	opts := Options{Seed: 3, Validation: ValidateBasic}
	srcFull, err := New(m, firstGoodPolicy(), parityPackets(m, 8, 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srcFull.Step(); err != nil {
		t.Fatal(err)
	}
	snap, err := srcFull.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		target *Engine
		mutate func(s Snapshot) Snapshot
	}{
		{"wrong seed", mk(firstGoodPolicy(), Options{Seed: 99, Validation: ValidateBasic}), nil},
		{"wrong policy", mk(&testPolicy{name: "test-other", det: true}, opts), nil},
		{"wrong mesh", func() *Engine {
			e, err := New(mesh.MustNew(2, 8), firstGoodPolicy(), nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			return e
		}(), nil},
		{"missing fault model", mk(firstGoodPolicy(), opts), func(s Snapshot) Snapshot { s.HasFaults = true; return s }},
		{"future schema", mk(firstGoodPolicy(), opts), func(s Snapshot) Snapshot { s.Version = SnapshotVersion + 1; return s }},
		{"v1 schema (had Workers, serial tie-break stream)", mk(firstGoodPolicy(), opts), func(s Snapshot) Snapshot { s.Version = 1; return s }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := *snap
			if tc.mutate != nil {
				s = tc.mutate(s)
			}
			if err := tc.target.Restore(&s); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("Restore err = %v, want ErrBadSnapshot", err)
			}
		})
	}

	t.Run("non-fresh engine", func(t *testing.T) {
		e, err := New(m, firstGoodPolicy(), parityPackets(m, 4, 2), opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
		if err := e.Restore(snap); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("Restore into stepped engine err = %v, want ErrBadSnapshot", err)
		}
	})
}

// statefulInjector injects one packet per step from an internal countdown —
// state the engine RNG does not cover, so checkpointing it requires the
// CheckpointableInjector interface.
type statefulInjector struct {
	remaining int
	dst       mesh.NodeID
}

func (si *statefulInjector) Inject(t int, e InjectorHost, rng *rand.Rand) []*Packet {
	if si.remaining <= 0 {
		return nil
	}
	node := mesh.NodeID(si.remaining % e.Mesh().Size())
	if node == si.dst || e.InjectionCapacity(node) == 0 {
		si.remaining--
		return nil
	}
	si.remaining--
	return []*Packet{NewPacket(e.NextPacketID(), node, si.dst)}
}
func (si *statefulInjector) Exhausted(t int) bool { return si.remaining <= 0 }
func (si *statefulInjector) SnapshotState() ([]byte, error) {
	return json.Marshal(si.remaining)
}
func (si *statefulInjector) RestoreState(data []byte) error {
	return json.Unmarshal(data, &si.remaining)
}

// TestSnapshotInjectorState: an injector with internal state round-trips
// through the snapshot and the resumed run matches the uninterrupted one.
func TestSnapshotInjectorState(t *testing.T) {
	m := mesh.MustNew(2, 5)
	opts := Options{Seed: 21, Validation: ValidateBasic, MaxSteps: 4000}
	dst := m.ID([]int{2, 2})

	runRef := func() (Result, []moveRec) {
		e, err := New(m, firstGoodPolicy(), nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		e.SetInjector(&statefulInjector{remaining: 40, dst: dst})
		return runToEnd(t, e)
	}
	refRes, refLog := runRef()

	a, err := New(m, firstGoodPolicy(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	a.SetInjector(&statefulInjector{remaining: 40, dst: dst})
	for i := 0; i < 12; i++ {
		if err := a.Step(); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !snap.HasInjector || len(snap.InjectorState) == 0 {
		t.Fatalf("injector state not captured: %+v", snap)
	}

	b, err := New(m, firstGoodPolicy(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	b.SetInjector(&statefulInjector{remaining: 40, dst: dst}) // fresh; Restore rewinds it
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	bRes, bLog := runToEnd(t, b)
	if bRes != refRes {
		t.Errorf("resumed continuous run diverged:\nresumed %+v\nref     %+v", bRes, refRes)
	}
	tail := refLog[:0:0]
	for _, mv := range refLog {
		if mv.t >= snap.Time {
			tail = append(tail, mv)
		}
	}
	if !slices.Equal(bLog, tail) {
		t.Errorf("resumed move log diverged (%d vs %d moves)", len(bLog), len(tail))
	}
}

// swapForeverEngine builds a two-packet fixture that never terminates.
func swapForeverEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	m := mesh.MustNew(1, 4)
	pol := &testPolicy{
		name: "test-swap",
		det:  true,
		route: func(ns *NodeState, out []mesh.Dir, rng *rand.Rand) {
			for i, p := range ns.Packets {
				if p.Node == 1 {
					out[i] = mesh.DirPlus(0)
				} else {
					out[i] = mesh.DirMinus(0)
				}
			}
		},
	}
	e, err := New(m, pol, []*Packet{NewPacket(0, 1, 0), NewPacket(1, 2, 3)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestRunContextCancel: cancelling the context stops the run after the step
// in flight, returns the partial summary with context.Canceled, and leaves
// the engine usable for Snapshot.
func TestRunContextCancel(t *testing.T) {
	e := swapForeverEngine(t, Options{MaxSteps: 1 << 30})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := e.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext err = %v, want context.Canceled", err)
	}
	if res == nil || res.DeadlineExceeded || res.HitMaxSteps || res.Livelocked {
		t.Fatalf("partial result misreported: %+v", res)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("cancellation took %v", took)
	}
	if _, err := e.Snapshot(); err != nil {
		t.Errorf("engine not snapshotable after cancel: %v", err)
	}
}

// TestRunPreCancelled: a context that is cancelled before the run starts
// stops it before its first step — the stop flag reads ctx.Err() when it is
// armed, not only once the watcher goroutine gets scheduled — and save sees
// nothing, because there is no unsaved progress.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 50; i++ {
		e := swapForeverEngine(t, Options{MaxSteps: 1 << 30})
		res, err := e.RunCheckpointed(ctx, 1, func(*Snapshot) error {
			t.Fatal("save called with no progress to save")
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("try %d: err = %v, want context.Canceled", i, err)
		}
		if e.Time() != 0 || res.TotalHops != 0 {
			t.Fatalf("try %d: a pre-cancelled run executed %d step(s), %d hops", i, e.Time(), res.TotalHops)
		}
	}
}

// TestRunContextDeadline: a ctx deadline behaves exactly like MaxWallTime —
// DeadlineExceeded set, nil error — so the two mechanisms agree.
func TestRunContextDeadline(t *testing.T) {
	e := swapForeverEngine(t, Options{MaxSteps: 1 << 30})
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	res, err := e.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeadlineExceeded {
		t.Fatalf("ctx deadline did not set DeadlineExceeded: %+v", res)
	}
	if res.HitMaxSteps || res.Livelocked {
		t.Errorf("wrong termination cause: %+v", res)
	}
}

// TestRunCheckpointed: the save callback fires every N steps and once more
// on an early stop with unsaved progress.
func TestRunCheckpointed(t *testing.T) {
	e := swapForeverEngine(t, Options{MaxSteps: 100})
	var snaps []*Snapshot
	res, err := e.RunCheckpointed(context.Background(), 30, func(s *Snapshot) error {
		snaps = append(snaps, s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HitMaxSteps {
		t.Fatalf("expected step-budget exhaustion: %+v", res)
	}
	if len(snaps) != 3 {
		t.Fatalf("save called %d times over 100 steps with every=30, want 3", len(snaps))
	}
	for i, s := range snaps {
		if want := 30 * (i + 1); s.Time != want {
			t.Errorf("snapshot %d at step %d, want %d", i, s.Time, want)
		}
	}

	// Early cancellation with progress since the last periodic save → one
	// final save at the stop point.
	e2 := swapForeverEngine(t, Options{MaxSteps: 1 << 30})
	ctx, cancel := context.WithCancel(context.Background())
	var last *Snapshot
	count := 0
	_, err = e2.RunCheckpointed(ctx, 1000, func(s *Snapshot) error {
		last = s
		count++
		cancel() // first save (or the exit save) also triggers the stop
		return nil
	})
	// The run is cancelled by the save callback itself; either the periodic
	// save at step 1000 or — since cancel comes from within — the exit save.
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if last == nil || last.Time == 0 {
		t.Fatalf("no usable checkpoint captured on cancellation (count=%d)", count)
	}
}
