package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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

// twoPacketSnapshot returns a snapshot of a two-packet engine after one step,
// with both packets still live on different nodes.
func twoPacketSnapshot(t *testing.T, m *mesh.Mesh, opts Options) *Snapshot {
	t.Helper()
	pkts := []*Packet{
		NewPacket(0, m.ID([]int{0, 0}), m.ID([]int{5, 5})),
		NewPacket(1, m.ID([]int{5, 0}), m.ID([]int{0, 5})),
	}
	e, err := New(m, firstGoodPolicy(), pkts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Step(); err != nil {
		t.Fatal(err)
	}
	s, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Queues) != 2 || e.Live() != 2 {
		t.Fatalf("premise: %d queues, %d live, want 2 and 2", len(s.Queues), e.Live())
	}
	return s
}

// TestRestoreRejectsDoubleQueuedPacket: a queue that lists one live packet
// twice — and so leaves the other live packet unqueued with the count still
// matching — is refused instead of running one packet twice.
func TestRestoreRejectsDoubleQueuedPacket(t *testing.T) {
	m := mesh.MustNew(2, 6)
	opts := Options{Seed: 3, Validation: ValidateBasic}
	s := twoPacketSnapshot(t, m, opts)
	q := s.Queues[0]
	s.Queues = []QueueState{{Node: q.Node, Packets: []int{q.Packets[0], q.Packets[0]}}}
	e, err := New(m, firstGoodPolicy(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(s); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Restore err = %v, want ErrBadSnapshot", err)
	}
}

// TestRestoreRejectsDuplicateIDs: two packets with one ID are refused.
func TestRestoreRejectsDuplicateIDs(t *testing.T) {
	m := mesh.MustNew(2, 6)
	opts := Options{Seed: 3, Validation: ValidateBasic}
	s := twoPacketSnapshot(t, m, opts)
	s.Packets[1].ID = s.Packets[0].ID
	e, err := New(m, firstGoodPolicy(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(s); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Restore err = %v, want ErrBadSnapshot", err)
	}
}

// TestRestoreFailureLeavesEngineFresh: a snapshot refused on its last queue
// queues nothing, so the same engine still takes the good snapshot and
// continues exactly like the engine it was taken from.
func TestRestoreFailureLeavesEngineFresh(t *testing.T) {
	m := mesh.MustNew(2, 6)
	opts := Options{Seed: 3, Validation: ValidateBasic}
	good := twoPacketSnapshot(t, m, opts)
	bad := *good
	bad.Queues = slices.Clone(good.Queues)
	bad.Queues[1].Packets = []int{len(good.Packets)} // out of range, found after queue 0
	e, err := New(m, firstGoodPolicy(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(&bad); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("Restore err = %v, want ErrBadSnapshot", err)
	}
	if e.Live() != 0 || e.Time() != 0 || len(e.Packets()) != 0 || len(e.q.Active()) != 0 {
		t.Fatalf("refused Restore left live=%d time=%d packets=%d active=%v",
			e.Live(), e.Time(), len(e.Packets()), e.q.Active())
	}
	if err := e.Restore(good); err != nil {
		t.Fatalf("Restore of the good snapshot after a refused one: %v", err)
	}
	ref, err := New(m, firstGoodPolicy(), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Restore(good); err != nil {
		t.Fatal(err)
	}
	if eh, rh := e.StateHash(), ref.StateHash(); eh != rh {
		t.Fatalf("state hash %#x, want %#x", eh, rh)
	}
	eRes, _ := runToEnd(t, e)
	refRes, _ := runToEnd(t, ref)
	if eRes != refRes {
		t.Fatalf("result after a refused Restore %+v, want %+v", eRes, refRes)
	}
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
		res, err := e.RunCheckpointed(ctx, 1, func(*Engine) error {
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

// keepSnapshots is a RunCheckpointed sink that keeps a Snapshot of every
// state it is handed.
func keepSnapshots(t *testing.T, snaps *[]*Snapshot) func(*Engine) error {
	return func(e *Engine) error {
		s, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		*snaps = append(*snaps, s)
		return nil
	}
}

// TestRunCheckpointed: the save callback fires every N steps and once more
// on an early stop with unsaved progress.
func TestRunCheckpointed(t *testing.T) {
	e := swapForeverEngine(t, Options{MaxSteps: 100})
	var snaps []*Snapshot
	res, err := e.RunCheckpointed(context.Background(), 30, keepSnapshots(t, &snaps))
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
	var kept []*Snapshot
	keep := keepSnapshots(t, &kept)
	_, err = e2.RunCheckpointed(ctx, 1000, func(e *Engine) error {
		cancel() // first save (or the exit save) also triggers the stop
		return keep(e)
	})
	// The run is cancelled by the save callback itself; either the periodic
	// save at step 1000 or — since cancel comes from within — the exit save.
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(kept) == 0 || kept[len(kept)-1].Time == 0 {
		t.Fatalf("no usable checkpoint captured on cancellation (count=%d)", len(kept))
	}
}

// TestSnapshotBytesDeterministic: two captures of one state are the same
// bytes, in both encodings and from both binary encoders. The livelock
// detector's history used to be listed in map order, so on this 16² torus
// most pairs of Snapshot() calls encoded differently.
func TestSnapshotBytesDeterministic(t *testing.T) {
	m := mesh.MustNewTorus(2, 16)
	e, err := New(m, leanGreedyPolicy{}, parityPackets(m, 2*m.Size(), 3),
		Options{Seed: 3, Validation: ValidateGreedy, DetectLivelock: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	first, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Seen) != 6 {
		t.Fatalf("premise: %d Seen entries after 6 steps, want 6", len(first.Seen))
	}
	if !slices.IsSortedFunc(first.Seen, func(a, b SeenState) int { return a.Time - b.Time }) {
		t.Fatalf("Seen not in Time order: %+v", first.Seen)
	}
	wantBin, err := first.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	for try := 0; try < 50; try++ {
		s, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		bin, err := s.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		js, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := e.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bin, wantBin) || !bytes.Equal(js, wantJSON) || !bytes.Equal(direct, wantBin) {
			t.Fatalf("capture %d of one state encodes differently (binary %v, JSON %v, engine encoder %v)",
				try, !bytes.Equal(bin, wantBin), !bytes.Equal(js, wantJSON), !bytes.Equal(direct, wantBin))
		}
	}
}

// checkpointBudgetEngine is a 2-D torus of the given side at full load,
// stepped 8 times with the livelock detector (and optionally a link-flap
// fault overlay) on, so every section of a checkpoint is populated.
func checkpointBudgetEngine(t *testing.T, side int, faults bool) *Engine {
	t.Helper()
	m := mesh.MustNewTorus(2, side)
	e, err := New(m, leanGreedyPolicy{}, parityPackets(m, 2*m.Size(), 3), checkpointBudgetOptions)
	if err != nil {
		t.Fatal(err)
	}
	if faults {
		e.SetFaults(flapModel{rate: 0.01, repair: 0.3}, FateDrop)
	}
	for i := 0; i < 8; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

var checkpointBudgetOptions = Options{Seed: 3, Validation: ValidateBasic, DetectLivelock: true}

// TestCheckpointAllocationBudget pins what a checkpoint costs in
// allocations: Engine.AppendBinary allocates nothing into a buffer that has
// room, and Restore's allocation count does not grow with the number of
// packets it rebuilds (they are one slab).
func TestCheckpointAllocationBudget(t *testing.T) {
	for _, faults := range []bool{false, true} {
		t.Run(fmt.Sprintf("append-binary/faults=%v", faults), func(t *testing.T) {
			e := checkpointBudgetEngine(t, 16, faults)
			buf, err := e.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			if allocs := testing.AllocsPerRun(20, func() {
				if buf, err = e.AppendBinary(buf[:0]); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("Engine.AppendBinary into a buffer with room allocates %.1f times per call, want 0", allocs)
			}
		})
	}
	t.Run("restore", func(t *testing.T) {
		restoreAllocs := func(side int) (float64, int) {
			snap, err := checkpointBudgetEngine(t, side, false).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			const runs = 10
			targets := make([]*Engine, runs+1) // AllocsPerRun calls f once more to warm up
			for i := range targets {
				if targets[i], err = New(mesh.MustNewTorus(2, side), leanGreedyPolicy{}, nil, checkpointBudgetOptions); err != nil {
					t.Fatal(err)
				}
			}
			next := 0
			allocs := testing.AllocsPerRun(runs, func() {
				if err := targets[next].Restore(snap); err != nil {
					t.Fatal(err)
				}
				next++
			})
			return allocs, len(snap.Packets)
		}
		small, smallPackets := restoreAllocs(16)
		large, largePackets := restoreAllocs(64)
		if large != small {
			t.Errorf("Restore allocates %.1f times for %d packets but %.1f for %d, want a count independent of the packets",
				small, smallPackets, large, largePackets)
		}
	})
}

// BenchmarkRestore prices a binary resume: the checkpoint bytes of a 32²
// torus at two packets per node (2 048 packets) after eight steps, decoded
// straight into a fresh engine. Building the engine is not timed.
func BenchmarkRestore(b *testing.B) {
	m := mesh.MustNewTorus(2, 32)
	opts := Options{Seed: 3, Validation: ValidateGreedy}
	src, err := New(m, leanGreedyPolicy{}, parityPackets(m, 2*m.Size(), 3), opts)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := src.Step(); err != nil {
			b.Fatal(err)
		}
	}
	data, err := src.AppendBinary(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e, err := New(m, leanGreedyPolicy{}, nil, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := e.RestoreBinary(data); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if e.StateHash() != src.StateHash() {
			b.Fatal("restored engine differs from the source")
		}
		b.StartTimer()
	}
}
